package enumerate_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/enumerate"
	"repro/internal/instantiate"
	"repro/internal/realize"
	"repro/internal/relschema"
	"repro/internal/summary"
	"repro/internal/workload"
)

// certifyCandidates lists the candidate instance sets certification
// searches for a witness: realize.CandidateSets at the cycle's own
// multiplicity and with one extra instance per program, each pre-flighted
// through instantiation the way internal/certify drops inapplicable ones.
func certifyCandidates(schema *relschema.Schema, w *summary.Witness, ignoreFKs bool) [][]enumerate.Instance {
	var out [][]enumerate.Instance
	for _, extra := range []bool{false, true} {
		set, _ := realize.CandidateSets(schema, w, realize.Options{IgnoreFKs: ignoreFKs, ExtraInstances: extra})
	cands:
		for _, c := range set {
			for id, inst := range c.Instances {
				if _, err := instantiate.Instantiate(schema, inst.LTP, id+1, inst.Assignment); err != nil {
					continue cands
				}
			}
			out = append(out, c.Instances)
		}
	}
	return out
}

// searcher runs candidate searches, each distinct one once: candidates
// whose instantiated transactions coincide (many cells share a witness)
// under the same budget explore the very same leaves.
type searcher struct {
	seen map[string]bool
}

// searchAll runs every not yet searched candidate to completion under its
// own budget.
func (s *searcher) searchAll(t *testing.T, schema *relschema.Schema, cands [][]enumerate.Instance, budget int) {
	t.Helper()
	var fresh [][]enumerate.Instance
	for _, c := range cands {
		var key strings.Builder
		fmt.Fprintf(&key, "%d", budget)
		for i, inst := range c {
			txn, err := instantiate.Instantiate(schema, inst.LTP, i+1, inst.Assignment)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range txn.Ops {
				fmt.Fprintf(&key, " %s%v", o, o.Attrs)
			}
			fmt.Fprintf(&key, " %v;", txn.Chunks)
		}
		if !s.seen[key.String()] {
			s.seen[key.String()] = true
			fresh = append(fresh, c)
		}
	}
	if len(fresh) == 0 {
		return
	}
	if _, _, err := enumerate.FindAnyCounterexample(schema, fresh, 0, enumerate.Options{MaxSchedules: budget}); err != nil {
		t.Fatal(err)
	}
}

// TestLeafEvaluatorMatchesSchedule is the oracle for the dense leaf
// evaluator: at every leaf of every search the certification pipeline
// runs — each candidate of every statically non-robust SmallBank, Auction
// and TPC-C cell under all four settings, and the 500 random workloads of
// the soundness property — its (allowed, serializable) verdict must equal
// the one the schedule-based definitions give on the rebuilt schedule.
// Every cell runs at the acceptance sweep's budget of 10,000 leaves per
// candidate, the random workloads at the property's 2,000; candidates
// repeated across cells are searched once. Under the race detector the
// budgets shrink twentyfold.
func TestLeafEvaluatorMatchesSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("leaf oracle sweep skipped in -short mode")
	}
	stats, uninstall := enumerate.InstallLeafOracle()
	defer uninstall()
	s := &searcher{seen: map[string]bool{}}

	budget := 10_000
	if raceEnabled {
		budget /= 20
	}
	for _, b := range []*benchmarks.Benchmark{benchmarks.SmallBank(), benchmarks.Auction(), benchmarks.TPCC()} {
		sess := analysis.NewSession(b.Schema)
		before := stats.Leaves.Load()
		for _, setting := range summary.AllSettings {
			cfg := analysis.Config{Setting: setting, Method: summary.TypeII}
			n := len(b.Programs)
			for mask := 1; mask < 1<<n; mask++ {
				var subset []*btp.Program
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						subset = append(subset, b.Programs[i])
					}
				}
				res, err := sess.CheckCtx(context.Background(), subset, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Robust {
					continue
				}
				s.searchAll(t, b.Schema, certifyCandidates(b.Schema, res.Witness, !setting.UseForeignKeys), budget)
			}
		}
		t.Logf("%s: %d leaves cross-checked", b.Name, stats.Leaves.Load()-before)
	}

	// The random workloads of TestRandomWorkloadSoundness500, searched the
	// way that property searches them.
	fuzzBudget := 2_000
	if raceEnabled {
		fuzzBudget /= 20
	}
	before := stats.Leaves.Load()
	for seed := int64(1); seed <= 500; seed++ {
		w := workload.RandomBTPs(rand.New(rand.NewSource(seed)), workload.RandomOptions{})
		sess := analysis.NewSession(w.Schema)
		cfg := analysis.Config{Setting: summary.SettingAttrDepFK, Method: summary.TypeII}
		res, err := sess.CheckCtx(context.Background(), w.Programs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Robust {
			ltps := btp.UnfoldAll(w.Programs, 0)
			instances := append(append([]*btp.LTP{}, ltps...), ltps...)
			if len(instances) > 6 {
				instances = instances[:6]
			}
			if _, err := realize.Programs(w.Schema, instances, realize.Options{MaxSchedules: fuzzBudget}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		s.searchAll(t, w.Schema, certifyCandidates(w.Schema, res.Witness, false), fuzzBudget)
	}
	t.Logf("random workloads: %d leaves cross-checked", stats.Leaves.Load()-before)

	if stats.Leaves.Load() == 0 {
		t.Fatal("the oracle saw no leaf")
	}
	if m := stats.Mismatches.Load(); m != 0 {
		t.Fatalf("%d of %d leaves disagree; first: %s", m, stats.Leaves.Load(), stats.First())
	}
}
