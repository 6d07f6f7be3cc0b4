// Package enumerate performs a bounded search over schedules(P, mvrc) for
// a non-serializable schedule: a constructive counterexample to robustness.
// It complements the sound-but-incomplete static analysis of
// internal/summary — when the static analysis rejects a program set, a
// counterexample found here proves the set truly non-robust (as the paper
// reports for every rejected SmallBank subset, Section 7.2).
//
// The search space is every interleaving of a given set of instantiated
// transactions that (a) respects per-transaction order, (b) respects atomic
// chunks, and (c) is free of dirty writes; reads are assigned
// read-last-committed versions. A completed interleaving is admissible
// when, in addition, every plain read observes a visible version and each
// tuple's insert and delete come first and last among its writes; the
// dense leaf evaluator (leaf.go) decides that and serializability for
// every leaf without building a schedule.Schedule.
package enumerate

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/btp"
	"repro/internal/instantiate"
	"repro/internal/relschema"
	"repro/internal/schedule"
	"repro/internal/seg"
)

// Options bound the search.
type Options struct {
	// MaxSchedules caps the number of complete interleavings examined;
	// 0 means DefaultMaxSchedules.
	MaxSchedules int
}

// DefaultMaxSchedules is the default interleaving budget.
const DefaultMaxSchedules = 2_000_000

// Result reports the outcome of a search.
type Result struct {
	// Found is true when a non-serializable MVRC-allowed schedule exists
	// within the budget.
	Found bool
	// Schedule is the counterexample when found.
	Schedule *schedule.Schedule
	// Graph is its serialization graph.
	Graph *seg.Graph
	// Explored counts the complete interleavings examined.
	Explored int
	// Exhausted is true when the whole space was searched (so Found=false
	// is a proof that these transactions admit no counterexample).
	Exhausted bool
}

// FindNonSerializable searches the interleavings of the given transactions
// for one whose MVRC execution is not conflict serializable.
func FindNonSerializable(schema *relschema.Schema, txns []*schedule.Transaction, opts Options) (*Result, error) {
	return FindNonSerializableCtx(context.Background(), schema, txns, opts)
}

// FindNonSerializableCtx is FindNonSerializable under a context: the DFS
// polls the context every few thousand steps, so callers driven by server
// deadlines or client disconnects can abort a long exhaustive search. On
// cancellation the context's error is returned.
func FindNonSerializableCtx(ctx context.Context, schema *relschema.Schema, txns []*schedule.Transaction, opts Options) (*Result, error) {
	budget := opts.MaxSchedules
	if budget <= 0 {
		budget = DefaultMaxSchedules
	}
	for _, t := range txns {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("enumerate: %w", err)
		}
	}
	ev := newLeafEval(txns)
	s := &search{
		ctx:    ctx,
		schema: schema,
		ev:     ev,
		budget: budget,
		res:    &Result{Exhausted: true},
		next:   make([]int, len(txns)),
		holder: make([]int32, len(ev.init)),
		order:  make([]int32, 0, len(ev.ops)),
	}
	for tu := range s.holder {
		s.holder[tu] = -1
	}
	s.inChunk = -1
	s.dfs()
	if s.cancelled {
		return nil, ctx.Err()
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.res, nil
}

// leafOracle, when non-nil, receives every complete interleaving together
// with the dense evaluator's verdict on it. Tests install a cross-check
// against the schedule-based definitions through it (export_test.go);
// production code never sets it.
var leafOracle func(schema *relschema.Schema, txns []*schedule.Transaction, order []*schedule.Op, allowed, serializable bool)

// search is the state of one bounded DFS over the interleavings of a
// transaction set. Operations and tuples are the dense ids of ev.
type search struct {
	ctx    context.Context
	schema *relschema.Schema
	ev     *leafEval
	budget int
	res    *Result
	err    error

	next    []int   // next operation index per transaction
	inChunk int     // transaction currently inside a chunk, or -1
	holder  []int32 // per tuple: transaction holding an uncommitted write, or -1
	order   []int32 // the interleaving so far, as op ids

	// The DFS polls the context on its first node and once every 4096
	// thereafter: cheap relative to a leaf evaluation, frequent enough
	// that cancellation lands within microseconds.
	steps     int
	cancelled bool
}

// dfs extends the current prefix by every admissible next operation, in
// transaction order; it returns true when the search must stop (found,
// budget spent, cancelled or failed).
func (s *search) dfs() bool {
	s.steps++
	if s.steps&4095 == 1 && s.ctx.Err() != nil {
		s.cancelled = true
		return true
	}
	ev := s.ev
	if len(s.order) == len(ev.ops) {
		return s.leaf()
	}
	for ti, t := range ev.txns {
		if s.inChunk >= 0 && s.inChunk != ti {
			continue
		}
		oi := s.next[ti]
		if oi >= len(t.Ops) {
			continue
		}
		o := ev.base[ti] + oi
		kind := ev.ops[o].Kind
		// Dirty-write pruning: a write on a tuple with an uncommitted
		// write from another transaction is not allowed under MVRC.
		acquired := int32(-1)
		if kind.IsWrite() {
			tu := ev.tuple[o]
			if h := s.holder[tu]; h >= 0 {
				if int(h) != ti {
					continue
				}
			} else {
				s.holder[tu] = int32(ti)
				acquired = tu
			}
		}
		// A commit releases every tuple its transaction wrote: each of
		// them is held by it, since a write on a tuple held by another
		// transaction was pruned above.
		if kind == schedule.OpCommit {
			for _, tu := range ev.txnWritten[ti] {
				s.holder[tu] = -1
			}
		}
		savedChunk := s.inChunk
		if ev.chunkOpen[o] {
			s.inChunk = ti
		} else {
			s.inChunk = -1
		}
		s.next[ti]++
		s.order = append(s.order, int32(o))

		stop := s.dfs()

		// Undo.
		s.order = s.order[:len(s.order)-1]
		s.next[ti]--
		s.inChunk = savedChunk
		if kind == schedule.OpCommit {
			for _, tu := range ev.txnWritten[ti] {
				s.holder[tu] = int32(ti)
			}
		} else if acquired >= 0 {
			s.holder[acquired] = -1
		}
		if stop {
			return true
		}
	}
	return false
}

// leaf examines one complete interleaving. The dense evaluator decides
// admissibility — dirty writes and chunk violations are already pruned by
// the DFS, but a read observing an unborn or dead version (e.g. a tuple
// read before its insert commits), or an insert or delete out of place in
// its tuple's write order, makes the interleaving inadmissible under MVRC —
// and then serializability. A hit is rebuilt as a schedule.Schedule and
// re-verified against the schedule-based definitions before it is
// returned.
func (s *search) leaf() bool {
	s.res.Explored++
	ev := s.ev
	allowed := ev.allowed(s.order)
	if leafOracle != nil {
		leafOracle(s.schema, ev.txns, ev.schedOrder(s.order), allowed, ev.serializable())
	}
	if allowed && !ev.serializable() {
		sched, err := schedule.FromOrder(s.schema, ev.txns, ev.schedOrder(s.order))
		if err != nil {
			s.err = fmt.Errorf("enumerate: internal: %w", err)
			return true
		}
		g := seg.Build(sched)
		if !sched.AllowedUnderMVRC() || g.IsConflictSerializable() {
			s.err = fmt.Errorf("enumerate: internal: leaf evaluator and schedule disagree on %s", sched)
			return true
		}
		s.res.Found = true
		s.res.Schedule = sched
		s.res.Graph = g
		return true
	}
	if s.res.Explored >= s.budget {
		s.res.Exhausted = false
		return true
	}
	return false
}

// Instance describes one transaction to instantiate for the search: an LTP
// plus its tuple assignment.
type Instance struct {
	LTP        *btp.LTP
	Assignment instantiate.Assignment
}

// FindCounterexample instantiates the given instances (with ids 1..n) and
// searches for a non-serializable MVRC schedule over them.
func FindCounterexample(schema *relschema.Schema, instances []Instance, opts Options) (*Result, error) {
	return FindCounterexampleCtx(context.Background(), schema, instances, opts)
}

// FindCounterexampleCtx is FindCounterexample under a context.
func FindCounterexampleCtx(ctx context.Context, schema *relschema.Schema, instances []Instance, opts Options) (*Result, error) {
	txns := make([]*schedule.Transaction, 0, len(instances))
	for i, inst := range instances {
		t, err := instantiate.Instantiate(schema, inst.LTP, i+1, inst.Assignment)
		if err != nil {
			return nil, err
		}
		txns = append(txns, t)
	}
	return FindNonSerializableCtx(ctx, schema, txns, opts)
}

// SessionInstances builds one search instance per unfolding of the program,
// drawing the LTPs from the shared analysis session (so repeated candidate
// construction across subsets reuses the memoized unfoldings). assign maps
// each LTP to its tuple assignment; bound 0 means the default unfold bound.
func SessionInstances(sess *analysis.Session, p *btp.Program, bound int, assign func(*btp.LTP) instantiate.Assignment) ([]Instance, error) {
	ltps, err := sess.LTPs(p, bound)
	if err != nil {
		return nil, err
	}
	out := make([]Instance, 0, len(ltps))
	for _, l := range ltps {
		out = append(out, Instance{LTP: l, Assignment: assign(l)})
	}
	return out, nil
}

// FindAnyCounterexample searches several candidate instance sets
// concurrently (bounded by parallelism; 0 means GOMAXPROCS) and returns the
// counterexample of the lowest-indexed candidate that admits one, together
// with that candidate's index (-1 when none does). Every candidate is
// searched to completion under its own budget, so the result is
// deterministic regardless of scheduling. This is the constructive
// complement of the parallel subset enumeration: when the static analysis
// rejects a set of subsets, their candidate instantiations can be checked
// for real anomalies in one parallel sweep.
func FindAnyCounterexample(schema *relschema.Schema, candidates [][]Instance, parallelism int, opts Options) (*Result, int, error) {
	return FindAnyCounterexampleCtx(context.Background(), schema, candidates, parallelism, opts)
}

// FindAnyCounterexampleCtx is FindAnyCounterexample under a context: each
// worker re-checks the context before claiming the next candidate and the
// per-candidate DFS polls it too, so the whole pool drains promptly on
// cancellation (returning the context's error).
func FindAnyCounterexampleCtx(ctx context.Context, schema *relschema.Schema, candidates [][]Instance, parallelism int, opts Options) (*Result, int, error) {
	if len(candidates) == 0 {
		return &Result{Exhausted: true}, -1, nil
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(candidates) {
		workers = len(candidates)
	}
	results := make([]*Result, len(candidates))
	errs := make([]error, len(candidates))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1))
				if i >= len(candidates) {
					return
				}
				results[i], errs[i] = FindCounterexampleCtx(ctx, schema, candidates[i], opts)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, -1, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, -1, fmt.Errorf("enumerate: candidate %d: %w", i, err)
		}
	}
	for i, res := range results {
		if res.Found {
			return res, i, nil
		}
	}
	// No counterexample: report exhaustion only if every search was
	// exhaustive.
	agg := &Result{Exhausted: true}
	for _, res := range results {
		agg.Explored += res.Explored
		if !res.Exhausted {
			agg.Exhausted = false
		}
	}
	return agg, -1, nil
}
