package realize

import (
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/enumerate"
	"repro/internal/instantiate"
	"repro/internal/robust"
	"repro/internal/summary"
)

// witnessFor runs the type-II analysis and returns the witness for a
// non-robust program subset.
func witnessFor(t *testing.T, b *benchmarks.Benchmark, setting summary.Setting, names ...string) *summary.Witness {
	t.Helper()
	var programs []*btp.Program
	for _, n := range names {
		p := b.Program(n)
		if p == nil {
			t.Fatalf("no program %q", n)
		}
		programs = append(programs, p)
	}
	c := robust.NewChecker(b.Schema)
	c.Setting = setting
	res, err := c.Check(programs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Robust {
		t.Fatalf("%v unexpectedly robust", names)
	}
	return res.Witness
}

// TestRealizeSmallBankBalAm realizes the {Bal, Am} witness into a concrete
// counterexample, proving true non-robustness.
func TestRealizeSmallBankBalAm(t *testing.T) {
	b := benchmarks.SmallBank()
	w := witnessFor(t, b, summary.SettingAttrDepFK, "Balance", "Amalgamate")
	res, err := Witness(b.Schema, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Realized {
		t.Fatalf("outcome = %s, want realized (instances %v, explored %d)",
			res.Outcome, res.Instances, res.Explored)
	}
	if !res.Schedule.AllowedUnderMVRC() {
		t.Fatal("realized schedule must be allowed under MVRC")
	}
	if res.Graph.IsConflictSerializable() {
		t.Fatal("realized schedule must not be serializable")
	}
}

// TestRealizeWriteCheck realizes the {WC} singleton witness.
func TestRealizeWriteCheck(t *testing.T) {
	b := benchmarks.SmallBank()
	w := witnessFor(t, b, summary.SettingAttrDepFK, "WriteCheck")
	// The witness cycle may involve a single instance; widen with an extra
	// instance per program (two WriteChecks race on one customer).
	res, err := Witness(b.Schema, w, Options{ExtraInstances: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Realized {
		t.Fatalf("outcome = %s (instances %v)", res.Outcome, res.Instances)
	}
}

// TestRealizeAuctionWithoutFK realizes the {PB} witness that appears when
// foreign keys are ignored (Figure 6: {PB} robust only with FKs).
func TestRealizeAuctionWithoutFK(t *testing.T) {
	b := benchmarks.Auction()
	w := witnessFor(t, b, summary.SettingAttrDep, "PlaceBid")
	// The witness comes from an FK-less analysis, so realization must
	// search the same overapproximated space (IgnoreFKs). The canonical
	// instantiation binds two PlaceBids to the same bid but different
	// buyers — impossible under the foreign key, which is exactly why the
	// FK-aware analysis certifies {PB} robust (Figure 6).
	res, err := Witness(b.Schema, w, Options{ExtraInstances: true, IgnoreFKs: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Realized {
		t.Fatalf("outcome = %s (instances %v, explored %d)", res.Outcome, res.Instances, res.Explored)
	}
	// With the foreign key enforced during instantiation, the same witness
	// must NOT realize: the buyer-row lock serializes the two PlaceBids.
	res, err = Witness(b.Schema, w, Options{ExtraInstances: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == Realized {
		t.Fatalf("FK-respecting instantiation realized an impossible schedule:\n%s", res.Schedule)
	}
}

// TestRealizeDeliveryBTPLevel: {Delivery} is the paper's documented false
// negative (Section 7.2) — but only at the SQL level. At the BTP level the
// witness DOES realize: the abstraction discards the predicate condition
// that forces concurrent Deliveries to select the same oldest order, so an
// instantiation in which they delete different orders is a legitimate BTP
// schedule and yields a cycle. This test pins down exactly where the
// abstraction gap lies.
func TestRealizeDeliveryBTPLevel(t *testing.T) {
	b := benchmarks.TPCC()
	w := witnessFor(t, b, summary.SettingAttrDepFK, "Delivery")
	res, err := Witness(b.Schema, w, Options{MaxSchedules: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Realized {
		t.Fatalf("outcome = %s (%s): the BTP-level Delivery witness should realize", res.Outcome, res.Note)
	}
	if !res.Schedule.AllowedUnderMVRC() || res.Graph.IsConflictSerializable() {
		t.Fatal("realized schedule must be MVRC-allowed and non-serializable")
	}
}

// instantiateAll materializes every instance of a candidate set, failing
// the test on any instantiation error (the strict form or a foreign-key
// annotation violated by the assignment).
func instantiateAll(t *testing.T, b *benchmarks.Benchmark, insts []enumerate.Instance) {
	t.Helper()
	for id, inst := range insts {
		if _, err := instantiate.Instantiate(b.Schema, inst.LTP, id, inst.Assignment); err != nil {
			t.Fatalf("instance %d (%s) does not instantiate: %v", id, inst.LTP.Name, err)
		}
	}
}

// TestGuidedAssignmentsHonorFKs: guided mode used to refuse witnesses from
// FK-annotated programs outright. It now builds an FK-consistent assignment
// via congruence closure over the tuple classes: the SmallBank witness
// (every program annotated on fS/fC) must yield instances that keep their
// annotations and pass the instantiation-time foreign-key check.
func TestGuidedAssignmentsHonorFKs(t *testing.T) {
	b := benchmarks.SmallBank()
	w := witnessFor(t, b, summary.SettingAttrDepFK, "Balance", "Amalgamate")
	insts, err := guidedAssignments(b.Schema, w, false)
	if err != nil {
		t.Fatalf("guided assignment failed on FK-annotated programs: %v", err)
	}
	annotated := false
	for _, inst := range insts {
		if len(inst.LTP.FKs()) > 0 {
			annotated = true
			if inst.Assignment.FK == nil {
				t.Fatal("FK-annotated instance carries no foreign-key valuation")
			}
		}
	}
	if !annotated {
		t.Fatal("guided instances lost their FK annotations — the check is vacuous")
	}
	instantiateAll(t, b, insts)
}

// TestGuidedAssignmentsAuctionFK: the Auction PlaceBid witness is the
// program that used to trip guided mode's FK gate (annotations f1/f2 link
// the bid and log writes to the buyer row). FK-respecting guided
// instantiation must now succeed and be FK-consistent — and the valuation
// must force both instances onto one buyer, which is exactly why the
// FK-aware analysis keeps {PB} robust (Figure 6).
func TestGuidedAssignmentsAuctionFK(t *testing.T) {
	b := benchmarks.Auction()
	w := witnessFor(t, b, summary.SettingAttrDep, "PlaceBid")
	insts, err := guidedAssignments(b.Schema, w, false)
	if err != nil {
		// A strict-form violation is an acceptable deterministic outcome
		// (the closure can collapse classes until a transaction touches a
		// tuple twice) — a silent wrong assignment is not.
		t.Skipf("guided FK closure deterministically inapplicable: %v", err)
	}
	instantiateAll(t, b, insts)
}

// TestCandidateSetsDelivery: CandidateSets exposes the instantiation
// strategies to the certification pipeline. TPC-C Delivery is the
// predicate-heavy, FK-heavy stress case (annotations on f5/f7/f8 with
// predicate sources): every returned candidate must instantiate cleanly
// under the annotations.
func TestCandidateSetsDelivery(t *testing.T) {
	b := benchmarks.TPCC()
	w := witnessFor(t, b, summary.SettingAttrDepFK, "Delivery")
	cands, errs := realizeCandidates(t, b, w, Options{})
	for _, c := range cands {
		instantiateAll(t, b, c.Instances)
	}
	if len(cands) == 0 {
		t.Fatalf("no candidate instantiates the Delivery witness: %v", errs)
	}
}

func realizeCandidates(t *testing.T, b *benchmarks.Benchmark, w *summary.Witness, opts Options) ([]Candidate, []error) {
	t.Helper()
	cands, errs := CandidateSets(b.Schema, w, opts)
	names := map[string]bool{}
	for _, c := range cands {
		if len(c.Instances) == 0 {
			t.Fatalf("candidate %q has no instances", c.Name)
		}
		if names[c.Name] {
			t.Fatalf("duplicate candidate name %q", c.Name)
		}
		names[c.Name] = true
	}
	return cands, errs
}

// TestRealizeRejectsEmptyWitness documents the precondition.
func TestRealizeRejectsEmptyWitness(t *testing.T) {
	b := benchmarks.Auction()
	if _, err := Witness(b.Schema, nil, Options{}); err == nil {
		t.Fatal("nil witness accepted")
	}
	if _, err := Witness(b.Schema, &summary.Witness{}, Options{}); err == nil {
		t.Fatal("empty witness accepted")
	}
}

// TestWitnessLTPsOrder pins the instance order of a witness: one LTP per
// cycle edge, then (with extra instances) each distinct LTP once in the
// order it first appears on the cycle. The order fixes transaction ids and
// so the search order; it is checked repeatedly because an order drawn
// from map iteration would only differ on some runs.
func TestWitnessLTPsOrder(t *testing.T) {
	a, b, c := &btp.LTP{Name: "A"}, &btp.LTP{Name: "B"}, &btp.LTP{Name: "C"}
	w := &summary.Witness{Cycle: []summary.Edge{{From: b, To: a}, {From: a, To: c}, {From: c, To: a}, {From: a, To: b}}}
	names := func(ls []*btp.LTP) string {
		var s []string
		for _, l := range ls {
			s = append(s, l.Name)
		}
		return strings.Join(s, ",")
	}
	for i := 0; i < 50; i++ {
		if got := names(witnessLTPs(w, false)); got != "B,A,C,A" {
			t.Fatalf("witnessLTPs(extra=false) = %s, want B,A,C,A", got)
		}
		if got := names(witnessLTPs(w, true)); got != "B,A,C,A,B,A,C" {
			t.Fatalf("witnessLTPs(extra=true) = %s, want B,A,C,A,B,A,C", got)
		}
	}
}
