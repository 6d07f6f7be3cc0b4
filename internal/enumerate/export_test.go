package enumerate

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/relschema"
	"repro/internal/schedule"
	"repro/internal/seg"
)

// LeafOracleStats counts the leaves a cross-check saw and those on which
// the dense evaluator disagreed with the schedule-based definitions.
type LeafOracleStats struct {
	Leaves     atomic.Int64
	Mismatches atomic.Int64

	mu    sync.Mutex
	first string
}

// First describes the first mismatch, or is empty.
func (st *LeafOracleStats) First() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.first
}

func (st *LeafOracleStats) mismatch(format string, args ...any) {
	if st.Mismatches.Add(1) == 1 {
		st.mu.Lock()
		st.first = fmt.Sprintf(format, args...)
		st.mu.Unlock()
	}
}

// InstallLeafOracle makes every search, at every complete interleaving,
// compare the dense evaluator's (allowed, serializable) pair with the slow
// path it replaced: schedule.FromOrder, Schedule.AllowedUnderMVRC and
// seg.Build(...).IsConflictSerializable. Serializability is compared on
// inadmissible leaves too. The returned function uninstalls the oracle;
// tests using it must not run in parallel with other searches.
func InstallLeafOracle() (*LeafOracleStats, func()) {
	st := &LeafOracleStats{}
	prev := leafOracle
	leafOracle = func(schema *relschema.Schema, txns []*schedule.Transaction, order []*schedule.Op, allowed, serializable bool) {
		st.Leaves.Add(1)
		s, err := schedule.FromOrder(schema, txns, order)
		if err != nil {
			st.mismatch("FromOrder rejects a searched order: %v", err)
			return
		}
		wantAllowed := s.AllowedUnderMVRC()
		wantSerializable := seg.Build(s).IsConflictSerializable()
		if allowed != wantAllowed || serializable != wantSerializable {
			st.mismatch("%s: dense (allowed %v, serializable %v), schedule (allowed %v, serializable %v)",
				s, allowed, serializable, wantAllowed, wantSerializable)
		}
	}
	return st, func() { leafOracle = prev }
}

// LeafEvaluation compiles the dense evaluator for txns and returns a
// function that evaluates the given complete interleaving once, as the
// search does at a leaf.
func LeafEvaluation(txns []*schedule.Transaction, order []*schedule.Op) func() (allowed, serializable bool) {
	ev := newLeafEval(txns)
	id := make(map[*schedule.Op]int32, len(ev.ops))
	for i, o := range ev.ops {
		id[o] = int32(i)
	}
	ids := make([]int32, len(order))
	for i, o := range order {
		ids[i] = id[o]
	}
	return func() (bool, bool) {
		return ev.allowed(ids), ev.serializable()
	}
}
