package enumerate_test

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/enumerate"
	"repro/internal/instantiate"
	"repro/internal/schedule"
)

// smallBankCell returns the instantiated transactions of the first
// certification candidate for a statically non-robust SmallBank subset
// under attr+FK.
func smallBankCell(tb testing.TB, abbrevs ...string) []*schedule.Transaction {
	tb.Helper()
	b := benchmarks.SmallBank()
	var programs []*btp.Program
	for _, a := range abbrevs {
		p := b.Program(a)
		if p == nil {
			tb.Fatalf("no SmallBank program %q", a)
		}
		programs = append(programs, p)
	}
	res, err := analysis.NewSession(b.Schema).CheckCtx(context.Background(), programs, analysis.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if res.Robust {
		tb.Fatalf("%v is robust; want a non-robust cell", abbrevs)
	}
	cands := certifyCandidates(b.Schema, res.Witness, false)
	if len(cands) == 0 {
		tb.Fatalf("%v: no candidate instantiation", abbrevs)
	}
	var txns []*schedule.Transaction
	for i, inst := range cands[0] {
		txn, err := instantiate.Instantiate(b.Schema, inst.LTP, i+1, inst.Assignment)
		if err != nil {
			tb.Fatal(err)
		}
		txns = append(txns, txn)
	}
	return txns
}

// TestLeafEvaluationAllocs pins the per-leaf cost model: evaluating a
// complete interleaving reuses the evaluator's scratch state and allocates
// nothing, on a serial leaf and on a non-serializable counterexample leaf.
func TestLeafEvaluationAllocs(t *testing.T) {
	txns := smallBankCell(t, "Bal", "Am")
	var serial []*schedule.Op
	for _, txn := range txns {
		serial = append(serial, txn.Ops...)
	}
	found, err := enumerate.FindNonSerializable(benchmarks.SmallBank().Schema, txns, enumerate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !found.Found {
		t.Fatal("{Bal, Am} admits no counterexample")
	}
	for _, tc := range []struct {
		name                      string
		order                     []*schedule.Op
		allowed, wantSerializable bool
	}{
		{"serial", serial, true, true},
		{"counterexample", found.Schedule.Order, true, false},
	} {
		eval := enumerate.LeafEvaluation(txns, tc.order)
		if allowed, serializable := eval(); allowed != tc.allowed || serializable != tc.wantSerializable {
			t.Fatalf("%s leaf: allowed %v serializable %v, want %v %v",
				tc.name, allowed, serializable, tc.allowed, tc.wantSerializable)
		}
		if n := testing.AllocsPerRun(100, func() { eval() }); n != 0 {
			t.Fatalf("%s leaf: %v allocs per evaluation, want 0", tc.name, n)
		}
	}
}

// BenchmarkFindNonSerializable times a budget-bound search: the first
// certification candidate of SmallBank {Bal, DC, TS} explores its whole
// 10,000-leaf budget without a counterexample. ns/leaf is the per-leaf
// cost of the search.
func BenchmarkFindNonSerializable(b *testing.B) {
	txns := smallBankCell(b, "Bal", "DC", "TS")
	schema := benchmarks.SmallBank().Schema
	b.ReportAllocs()
	leaves := 0
	for b.Loop() {
		res, err := enumerate.FindNonSerializable(schema, txns, enumerate.Options{MaxSchedules: 10_000})
		if err != nil {
			b.Fatal(err)
		}
		leaves += res.Explored
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(leaves), "ns/leaf")
}
