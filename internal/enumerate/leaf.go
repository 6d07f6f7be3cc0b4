package enumerate

import (
	"math/bits"

	"repro/internal/schedule"
)

// leafEval decides, for one complete interleaving of a fixed transaction
// set, the two questions the search asks at every leaf: is the induced
// multiversion schedule allowed under MVRC, and is it conflict
// serializable. It answers them exactly as schedule.FromOrder followed by
// Schedule.AllowedUnderMVRC and seg.Build(...).IsConflictSerializable
// would, but over dense state compiled once per search:
//
//   - operations, tuples and transactions get slice indices (an
//     operation's id is its position in the concatenation of the
//     transactions' operation lists);
//   - every statically possible dependency — same tuple (or a predicate
//     read's relation), different transactions, intersecting attributes
//     where Section 3.4 requires it — becomes one pair comparing two
//     version slots, so the per-leaf graph build is a linear scan;
//   - all per-leaf state lives in scratch slices reused across leaves, so
//     evaluating a leaf allocates nothing.
//
// A leafEval is not safe for concurrent use; each search compiles its own.
type leafEval struct {
	txns  []*schedule.Transaction
	ops   []*schedule.Op // by op id
	base  []int          // per transaction: op id of its first operation
	words int            // uint64 words per adjacency row

	// Static, per op id.
	txn       []int32   // owning transaction
	tuple     []int32   // dense tuple id; -1 for predicate reads and commits
	chunkOpen []bool    // after executing the op its transaction is inside an atomic chunk with operations still to come
	vsetBase  []int32   // predicate reads: first slot of their version set in vals
	vsetTuple [][]int32 // predicate reads: the tuples of their relation, one per slot

	// Static, per tuple and per transaction.
	init       []int32   // per tuple: initial version, 0 (unborn) when an insert creates it, else 1
	txnWrites  [][]int32 // per transaction: its write op ids in program order
	txnWritten [][]int32 // per transaction: the distinct tuples it writes
	pairs      []leafPair

	// Scratch, rewritten by every evaluation.
	vals      []int32 // per op id: the version written (writes) or read (reads); then one slot per predicate-read version-set entry
	next      []int32 // per tuple: latest version handed out
	committed []int32 // per tuple: latest committed version
	dead      []int32 // per tuple: version of the last delete executed, -1 if none
	holder    []int32 // per tuple: transaction with an uncommitted write, -1 if none
	adj       []uint64
	color     []uint8
}

// leafPair is one statically possible dependency b →s a between
// operations of transactions from and to. It holds in a given leaf when
// vals[lhs] < vals[rhs] (or ≤, when !strict) — e.g. a ww-dependency is
// v_w(b) < v_w(a) and a wr-dependency v_w(b) ≤ v_r(a).
type leafPair struct {
	lhs, rhs int32
	strict   bool
	word     int32  // index into adj of the from-row word holding to's bit
	bit      uint64 // to's bit within that word
}

// newLeafEval compiles the evaluator for the given (validated)
// transactions.
func newLeafEval(txns []*schedule.Transaction) *leafEval {
	e := &leafEval{txns: txns}
	e.words = (len(txns) + 63) / 64
	e.base = make([]int, len(txns))
	tupleIDs := map[schedule.TupleID]int32{}
	var tupleRel []string
	for ti, t := range txns {
		e.base[ti] = len(e.ops)
		for _, o := range t.Ops {
			e.ops = append(e.ops, o)
			e.txn = append(e.txn, int32(ti))
			tu := int32(-1)
			if o.Kind != schedule.OpCommit && o.Kind != schedule.OpPredRead {
				id, ok := tupleIDs[o.TupleRef]
				if !ok {
					id = int32(len(tupleRel))
					tupleIDs[o.TupleRef] = id
					tupleRel = append(tupleRel, o.TupleRef.Rel)
				}
				tu = id
			}
			e.tuple = append(e.tuple, tu)
		}
	}
	nOps, nTuples := len(e.ops), len(tupleRel)

	e.chunkOpen = make([]bool, nOps)
	e.txnWrites = make([][]int32, len(txns))
	e.txnWritten = make([][]int32, len(txns))
	for ti, t := range txns {
		for _, c := range t.Chunks {
			for oi := c.From; oi < c.To; oi++ {
				e.chunkOpen[e.base[ti]+oi] = true
			}
		}
		seen := map[int32]bool{}
		for oi, o := range t.Ops {
			if o.IsWrite() {
				id := int32(e.base[ti] + oi)
				e.txnWrites[ti] = append(e.txnWrites[ti], id)
				if tu := e.tuple[id]; !seen[tu] {
					seen[tu] = true
					e.txnWritten[ti] = append(e.txnWritten[ti], tu)
				}
			}
		}
	}

	e.init = make([]int32, nTuples)
	for tu := range e.init {
		e.init[tu] = 1
	}
	for id, o := range e.ops {
		if o.Kind == schedule.OpInsert {
			e.init[e.tuple[id]] = 0
		}
	}

	// Predicate reads observe every tuple of their relation that the
	// schedule mentions; each such (read, tuple) version gets a slot in
	// vals after the per-op versions.
	e.vsetBase = make([]int32, nOps)
	e.vsetTuple = make([][]int32, nOps)
	slot := int32(nOps)
	slotOf := map[[2]int32]int32{} // (pred op, tuple) -> vals slot
	for id, o := range e.ops {
		if o.Kind != schedule.OpPredRead {
			continue
		}
		e.vsetBase[id] = slot
		var tuples []int32
		for tu, rel := range tupleRel {
			if rel == o.Rel {
				slotOf[[2]int32{int32(id), int32(tu)}] = slot + int32(len(tuples))
				tuples = append(tuples, int32(tu))
			}
		}
		e.vsetTuple[id] = tuples
		slot += int32(len(tuples))
	}

	// The dependency pairs of Section 3.4 (the same case split as
	// seg.dependency), with the tuple/relation match and the attribute
	// test done here once instead of at every leaf.
	for bi, b := range e.ops {
		for ai, a := range e.ops {
			if e.txn[bi] == e.txn[ai] {
				continue
			}
			var lhs, rhs int32
			var strict bool
			switch {
			case b.IsWrite() && a.IsWrite() && a.TupleRef == b.TupleRef:
				if !b.Attrs.Intersects(a.Attrs) {
					continue
				}
				lhs, rhs, strict = int32(bi), int32(ai), true // ww: v_w(b) ≪ v_w(a)
			case b.IsWrite() && a.IsRead() && a.TupleRef == b.TupleRef:
				if !b.Attrs.Intersects(a.Attrs) {
					continue
				}
				lhs, rhs, strict = int32(bi), int32(ai), false // wr: v_w(b) ≤ v_r(a)
			case b.IsRead() && a.IsWrite() && a.TupleRef == b.TupleRef:
				if !b.Attrs.Intersects(a.Attrs) {
					continue
				}
				lhs, rhs, strict = int32(bi), int32(ai), true // rw: v_r(b) ≪ v_w(a)
			case b.IsWrite() && a.IsPredRead() && b.TupleRef.Rel == a.Rel:
				if b.Kind == schedule.OpWrite && !b.Attrs.Intersects(a.Attrs) {
					continue
				}
				// pred-wr: v_w(b) ≤ the version of b's tuple in Vset(a).
				lhs, rhs, strict = int32(bi), slotOf[[2]int32{int32(ai), e.tuple[bi]}], false
			case b.IsPredRead() && a.IsWrite() && a.TupleRef.Rel == b.Rel:
				if a.Kind == schedule.OpWrite && !b.Attrs.Intersects(a.Attrs) {
					continue
				}
				// pred-rw: the version of a's tuple in Vset(b) ≪ v_w(a).
				lhs, rhs, strict = slotOf[[2]int32{int32(bi), e.tuple[ai]}], int32(ai), true
			default:
				continue
			}
			from, to := int(e.txn[bi]), int(e.txn[ai])
			e.pairs = append(e.pairs, leafPair{
				lhs: lhs, rhs: rhs, strict: strict,
				word: int32(from*e.words + to/64),
				bit:  1 << uint(to%64),
			})
		}
	}

	e.vals = make([]int32, slot)
	e.next = make([]int32, nTuples)
	e.committed = make([]int32, nTuples)
	e.dead = make([]int32, nTuples)
	e.holder = make([]int32, nTuples)
	e.adj = make([]uint64, len(txns)*e.words)
	e.color = make([]uint8, len(txns))
	return e
}

// allowed executes the interleaving (op ids, each operation of every
// transaction exactly once in program order) under read-last-committed
// semantics, recording every version in vals, and reports whether the
// induced schedule is allowed under MVRC: no dirty write, atomic chunks
// contiguous, every plain read observing a visible version, and per tuple
// the insert (if any) as the first write and the delete (if any) as the
// last. The pass always runs to the end, so serializable can be asked
// afterwards even of an inadmissible leaf.
func (e *leafEval) allowed(order []int32) bool {
	ok := true
	copy(e.next, e.init)
	copy(e.committed, e.init)
	for tu := range e.dead {
		e.dead[tu] = -1
		e.holder[tu] = -1
	}
	inChunk := int32(-1)
	for _, o := range order {
		ti := e.txn[o]
		if inChunk >= 0 && inChunk != ti {
			ok = false // another transaction interleaves an atomic chunk
		}
		inChunk = -1
		if e.chunkOpen[o] {
			inChunk = ti
		}
		switch op := e.ops[o]; op.Kind {
		case schedule.OpWrite, schedule.OpInsert, schedule.OpDelete:
			tu := e.tuple[o]
			if h := e.holder[tu]; h >= 0 && h != ti {
				ok = false // dirty write
			}
			if e.dead[tu] >= 0 {
				ok = false // a write after the tuple's delete
			}
			if op.Kind == schedule.OpInsert && e.next[tu] != e.init[tu] {
				ok = false // an insert after another write
			}
			e.holder[tu] = ti
			e.next[tu]++
			e.vals[o] = e.next[tu]
			if op.Kind == schedule.OpDelete {
				e.dead[tu] = e.next[tu]
			}
		case schedule.OpRead:
			// The version must be visible: neither unborn nor dead. A
			// delete later in the order installs a newer version than
			// any committed now, so only one already executed can match.
			tu := e.tuple[o]
			v := e.committed[tu]
			e.vals[o] = v
			if v == 0 || v == e.dead[tu] {
				ok = false
			}
		case schedule.OpPredRead:
			slot := e.vsetBase[o]
			for k, tu := range e.vsetTuple[o] {
				e.vals[int(slot)+k] = e.committed[tu]
			}
		case schedule.OpCommit:
			for _, w := range e.txnWrites[ti] {
				tu := e.tuple[w]
				if e.vals[w] > e.committed[tu] {
					e.committed[tu] = e.vals[w]
				}
				if e.holder[tu] == ti {
					e.holder[tu] = -1
				}
			}
		}
	}
	return ok
}

// serializable reports whether the leaf last passed to allowed induces an
// acyclic serialization graph (Theorem 3.2): it evaluates every
// precomputed dependency pair into the transaction adjacency bitset and
// runs a cycle check over it.
func (e *leafEval) serializable() bool {
	clear(e.adj)
	for i := range e.pairs {
		p := &e.pairs[i]
		l, r := e.vals[p.lhs], e.vals[p.rhs]
		if l < r || (l == r && !p.strict) {
			e.adj[p.word] |= p.bit
		}
	}
	clear(e.color)
	for t := range e.color {
		if e.color[t] == 0 && e.cyclic(t) {
			return false
		}
	}
	return true
}

// cyclic is the DFS-coloring cycle search from transaction t (0 white,
// 1 on the stack, 2 done).
func (e *leafEval) cyclic(t int) bool {
	e.color[t] = 1
	row := e.adj[t*e.words : (t+1)*e.words]
	for wi, w := range row {
		for w != 0 {
			u := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			switch e.color[u] {
			case 1:
				return true
			case 0:
				if e.cyclic(u) {
					return true
				}
			}
		}
	}
	e.color[t] = 2
	return false
}

// schedOrder maps an order of op ids back to the operations.
func (e *leafEval) schedOrder(order []int32) []*schedule.Op {
	out := make([]*schedule.Op, len(order))
	for i, o := range order {
		out[i] = e.ops[o]
	}
	return out
}
