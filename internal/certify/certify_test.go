package certify

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchmarks"
	"repro/internal/btp"
	"repro/internal/summary"
)

func programsOf(t *testing.T, b *benchmarks.Benchmark, names ...string) []*btp.Program {
	t.Helper()
	var out []*btp.Program
	for _, n := range names {
		p := b.Program(n)
		if p == nil {
			t.Fatalf("no program %q", n)
		}
		out = append(out, p)
	}
	return out
}

// TestCertifySmallBankBalAm certifies the canonical anomaly of the paper:
// {Balance, Amalgamate} is non-robust under attr+FK and realizes into a
// replayed non-serializable execution. The verdict must feed the certified
// bit back into the session exactly once.
func TestCertifySmallBankBalAm(t *testing.T) {
	b := benchmarks.SmallBank()
	sess := analysis.NewSession(b.Schema)
	cfg := analysis.DefaultConfig()
	ps := programsOf(t, b, "Balance", "Amalgamate")

	res, err := Subset(context.Background(), sess, cfg, ps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Certified {
		t.Fatalf("status = %s (reason %q), want certified", res.Status, res.Reason)
	}
	if res.Certificate == nil {
		t.Fatal("certified result without a certificate")
	}
	if err := res.Certificate.Verify(b.Schema); err != nil {
		t.Fatalf("certificate does not verify: %v", err)
	}
	if len(res.Certificate.Cycle.Deps) == 0 {
		t.Fatal("certificate cycle is empty")
	}
	if !res.NewlyCertified {
		t.Fatal("first certification did not mark the core certified")
	}
	if got := sess.Stats().Cores.Certified; got != 1 {
		t.Fatalf("session reports %d certified cores, want 1", got)
	}

	// Re-certifying the same subset finds the bit already set.
	again, err := Subset(context.Background(), sess, cfg, ps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != Certified || again.NewlyCertified {
		t.Fatalf("re-certification: status %s, newly %v — want certified, false",
			again.Status, again.NewlyCertified)
	}
}

// TestCertifyRobustSubset: a robust subset short-circuits before any
// realization work.
func TestCertifyRobustSubset(t *testing.T) {
	b := benchmarks.SmallBank()
	sess := analysis.NewSession(b.Schema)
	res, err := Subset(context.Background(), sess, analysis.DefaultConfig(),
		programsOf(t, b, "Balance"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Robust {
		t.Fatalf("status = %s, want robust", res.Status)
	}
	if res.Certificate != nil || res.Candidates != 0 {
		t.Fatal("robust result must carry no realization state")
	}
}

// TestCertifyBudgetReason: a one-schedule budget cannot find anything and
// must report the deterministic budget reason.
func TestCertifyBudgetReason(t *testing.T) {
	b := benchmarks.SmallBank()
	sess := analysis.NewSession(b.Schema)
	res, err := Subset(context.Background(), sess, analysis.DefaultConfig(),
		programsOf(t, b, "Balance", "Amalgamate"), Options{MaxSchedules: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unrealized {
		t.Fatalf("status = %s, want unrealized under a 1-schedule budget", res.Status)
	}
	if !strings.HasPrefix(res.Reason, "budget") {
		t.Fatalf("reason %q does not carry the budget prefix", res.Reason)
	}
}

// TestCertifyDeterministic certifies a TPC-C cell three times from fresh
// sessions: status, reason, candidate, explored count and schedule must
// be identical. {NO, OS, SL} under attr dep once answered certified on
// some sweeps and budget on others, because the extra instances of its
// candidates were appended in map-iteration order.
func TestCertifyDeterministic(t *testing.T) {
	b := benchmarks.TPCC()
	cfg := analysis.Config{Setting: summary.SettingAttrDep, Method: summary.TypeII}
	ps := programsOf(t, b, "NO", "OS", "SL")
	budget := 10_000
	if raceEnabled {
		budget = 500
	}
	var first string
	for i := 0; i < 3; i++ {
		res, err := Subset(context.Background(), analysis.NewSession(b.Schema), cfg, ps, Options{MaxSchedules: budget})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s|%s|%d|%d", res.Status, res.Reason, res.Candidates, res.Explored)
		if c := res.Certificate; c != nil {
			got += "|" + c.Candidate + "|" + c.Schedule.String()
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("certification %d differs:\n got  %s\n want %s", i+1, got, first)
		}
	}
}

// TestCertifyAllBenchmarksAllSettings is the pipeline's acceptance sweep:
// for SmallBank, Auction and TPC-C under each of the four analysis
// settings, every statically non-robust subset must either produce a
// verifying certificate or a deterministic Unrealized reason — never an
// error. The interleaving budget is kept modest; exceeding it is exactly
// the documented "budget" outcome.
func TestCertifyAllBenchmarksAllSettings(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance sweep skipped in -short mode")
	}
	// Modest per-candidate budget: large subsets overrun it and land on
	// the documented "budget" outcome, which is exactly what the sweep
	// verifies; raising it only grows certificates for slow cases. Under
	// the race detector replay is ~10x slower, so the budget shrinks —
	// more subsets land on the (equally valid) budget outcome, and the
	// sweep stays inside the per-package test timeout.
	maxSchedules := 10_000
	if raceEnabled {
		maxSchedules = 500
	}
	for _, bench := range []*benchmarks.Benchmark{
		benchmarks.SmallBank(), benchmarks.Auction(), benchmarks.TPCC(),
	} {
		sess := analysis.NewSession(bench.Schema)
		for _, setting := range summary.AllSettings {
			cfg := analysis.Config{Setting: setting, Method: summary.TypeII}
			n := len(bench.Programs)
			for mask := 1; mask < 1<<n; mask++ {
				var subset []*btp.Program
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						subset = append(subset, bench.Programs[i])
					}
				}
				name := fmt.Sprintf("%s/%s/mask%d", bench.Name, setting, mask)
				res, err := Subset(context.Background(), sess, cfg, subset, Options{MaxSchedules: maxSchedules})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				switch res.Status {
				case Robust:
				case Certified:
					if err := res.Certificate.Verify(bench.Schema); err != nil {
						t.Fatalf("%s: certificate does not verify: %v", name, err)
					}
				case Unrealized:
					if !strings.HasPrefix(res.Reason, "no candidate") &&
						!strings.HasPrefix(res.Reason, "exhausted") &&
						!strings.HasPrefix(res.Reason, "budget") {
						t.Fatalf("%s: non-deterministic unrealized reason %q", name, res.Reason)
					}
				}
			}
		}
	}
}
