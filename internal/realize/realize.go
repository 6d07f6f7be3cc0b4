// Package realize attempts to turn a dangerous cycle found in a summary
// graph (a static non-robustness verdict) into a concrete counterexample: a
// schedule in schedules(P, mvrc) that is not conflict serializable.
//
// Algorithm 2 is sound but incomplete — the presence of a type-II cycle
// does not imply non-robustness (Section 6.3). Realization separates the
// two outcomes at the BTP level: if a witness cycle can be realized, the
// program set is provably not robust as a set of BTPs; if exhaustive
// search over the canonical instantiation finds nothing, the verdict may be
// a false negative.
//
// Note the abstraction level: TPC-C's {Delivery} (Section 7.2) realizes a
// BTP-level counterexample — two Delivery instances deleting different
// "oldest" open orders — even though the concrete SQL program is robust,
// because the real predicate forces both instances to select the same
// oldest order. The BTP formalism deliberately discards predicate
// conditions, so that schedule is inside schedules(P, mvrc) for the BTPs
// while being unreachable for the SQL programs. Realization therefore
// proves BTP-level non-robustness; SQL-level robustness can still differ.
//
// The realization strategy instantiates one transaction per node visit of
// the witness cycle over a canonical tuple population. Statements linked by
// foreign-key annotations form entity groups that share consistent tuples;
// unrelated statements of the same relation maximize conflicts by sharing
// the relation's primary tuple; inserts and deletes receive private tuples
// (the formalism allows at most one insert and one delete per tuple).
package realize

import (
	"fmt"

	"repro/internal/btp"
	"repro/internal/enumerate"
	"repro/internal/instantiate"
	"repro/internal/relschema"
	"repro/internal/schedule"
	"repro/internal/seg"
	"repro/internal/summary"
)

// Options bound the realization search.
type Options struct {
	// MaxSchedules caps the exhaustive interleaving search (0 = the
	// enumerate default).
	MaxSchedules int
	// ExtraInstances adds one extra instance of every distinct program in
	// the witness, widening the search beyond the cycle's multiplicity.
	ExtraInstances bool
	// IgnoreFKs instantiates without the programs' foreign-key
	// annotations. Use it when the witness came from an analysis setting
	// that ignored foreign keys: the 'tpl dep' / 'attr dep' settings
	// overapproximate schedules by dropping the annotations, and the
	// realization must search the same space.
	IgnoreFKs bool
}

// Outcome classifies a realization attempt.
type Outcome int

// Outcomes.
const (
	// Realized: a concrete MVRC-allowed, non-serializable schedule exists;
	// the BTP set is definitely not robust.
	Realized Outcome = iota
	// Refuted: the canonical instantiation admits no counterexample (its
	// whole interleaving space was searched); the verdict may be a false
	// negative. Other instantiations could still realize the cycle.
	Refuted
	// Inconclusive: the search budget was exhausted first, or the
	// canonical instantiation was inapplicable (see Note).
	Inconclusive
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Realized:
		return "realized"
	case Refuted:
		return "refuted (possible false negative)"
	default:
		return "inconclusive"
	}
}

// Result reports a realization attempt.
type Result struct {
	Outcome Outcome
	// Schedule and Graph hold the counterexample when Outcome == Realized.
	Schedule *schedule.Schedule
	Graph    *seg.Graph
	// Explored counts examined interleavings.
	Explored int
	// Instances lists the instantiated transactions' labels.
	Instances []string
	// Note explains an Inconclusive outcome.
	Note string
}

// Witness realizes a dangerous cycle from a summary graph: it instantiates
// the cycle's programs and searches the MVRC schedule space for a
// non-serializable schedule.
func Witness(s *relschema.Schema, w *summary.Witness, opts Options) (*Result, error) {
	if w == nil || len(w.Cycle) == 0 {
		return nil, fmt.Errorf("realize: empty witness")
	}
	res, err := Programs(s, witnessLTPs(w, opts.ExtraInstances), opts)
	if err != nil || res.Outcome == Realized {
		return res, err
	}
	// Second attempt: witness-guided tuple sharing. The canonical
	// shared-tuple instantiation can over-serialize instances through rows
	// the cycle does not need (e.g. PlaceBid's buyer update); the guided
	// assignment shares tuples only along the cycle's edges, with a
	// foreign-key congruence closure keeping annotated statements on
	// consistent tuples when the annotations are in force.
	guided, gerr := guidedAssignments(s, w, opts.IgnoreFKs)
	if gerr != nil {
		return res, nil // keep the canonical outcome
	}
	search, gerr := enumerate.FindCounterexample(s, guided, enumerate.Options{MaxSchedules: opts.MaxSchedules})
	if gerr != nil {
		return res, nil
	}
	res.Explored += search.Explored
	if search.Found {
		res.Outcome = Realized
		res.Schedule = search.Schedule
		res.Graph = search.Graph
		res.Instances = res.Instances[:0]
		for _, inst := range guided {
			res.Instances = append(res.Instances, inst.LTP.Name)
		}
		res.Note = "realized by witness-guided instantiation"
	} else if res.Outcome == Refuted && !search.Exhausted {
		res.Outcome = Inconclusive
		res.Note = "guided search budget exhausted"
	}
	return res, nil
}

// witnessLTPs lists the LTP instances a witness cycle demands: one per
// cycle edge, plus (optionally) one extra per distinct program, in the
// order the programs first appear on the cycle. The order fixes the
// transaction ids and so the search order: it must not depend on map
// iteration, or certification outcomes would vary between runs.
func witnessLTPs(w *summary.Witness, extra bool) []*btp.LTP {
	var ltps, distinct []*btp.LTP
	seen := map[*btp.LTP]bool{}
	for _, e := range w.Cycle {
		ltps = append(ltps, e.From)
		if !seen[e.From] {
			seen[e.From] = true
			distinct = append(distinct, e.From)
		}
	}
	if extra {
		ltps = append(ltps, distinct...)
	}
	return ltps
}

// canonicalInstances instantiates the LTP list over the canonical shared
// tuple population (one transaction per entry).
func canonicalInstances(s *relschema.Schema, instancesLTPs []*btp.LTP, ignoreFKs bool) ([]enumerate.Instance, []string, error) {
	if ignoreFKs {
		stripped := make([]*btp.LTP, len(instancesLTPs))
		for i, l := range instancesLTPs {
			// A copy without origin loses the FK annotations while keeping
			// the statement occurrences and name.
			stripped[i] = &btp.LTP{Name: l.Name, Stmts: l.Stmts}
		}
		instancesLTPs = stripped
	}
	pop := newPopulation(s)
	var instances []enumerate.Instance
	var labels []string
	for i, l := range instancesLTPs {
		asg, err := pop.assignment(l, i)
		if err != nil {
			return nil, labels, err
		}
		instances = append(instances, enumerate.Instance{LTP: l, Assignment: asg})
		labels = append(labels, l.Name)
	}
	return instances, labels, nil
}

// Candidate is one instantiation strategy's instance set, for callers that
// run the counterexample search themselves (internal/certify replays the
// found schedule through the MVCC engine afterwards).
type Candidate struct {
	// Name identifies the strategy: "canonical" or "guided".
	Name string
	// Instances is the concrete instance list to search over.
	Instances []enumerate.Instance
}

// CandidateSets derives every instantiation candidate for a witness without
// searching: the canonical population over the cycle's LTP multiset
// (widened by ExtraInstances when set) and the witness-guided assignment.
// Strategies whose instantiation fails are reported in the error list and
// skipped; an empty candidate list with a non-empty error list means the
// witness admits no instantiation under these options.
func CandidateSets(s *relschema.Schema, w *summary.Witness, opts Options) ([]Candidate, []error) {
	if w == nil || len(w.Cycle) == 0 {
		return nil, []error{fmt.Errorf("realize: empty witness")}
	}
	var cands []Candidate
	var errs []error
	if insts, _, err := canonicalInstances(s, witnessLTPs(w, opts.ExtraInstances), opts.IgnoreFKs); err != nil {
		errs = append(errs, fmt.Errorf("canonical instantiation inapplicable: %w", err))
	} else {
		cands = append(cands, Candidate{Name: "canonical", Instances: insts})
	}
	if guided, err := guidedAssignments(s, w, opts.IgnoreFKs); err != nil {
		errs = append(errs, fmt.Errorf("guided instantiation inapplicable: %w", err))
	} else {
		cands = append(cands, Candidate{Name: "guided", Instances: guided})
	}
	return cands, errs
}

// Programs realizes a counterexample over explicit LTP instances (one
// transaction per list entry).
func Programs(s *relschema.Schema, instancesLTPs []*btp.LTP, opts Options) (*Result, error) {
	instances, labels, err := canonicalInstances(s, instancesLTPs, opts.IgnoreFKs)
	if err != nil {
		return &Result{
			Outcome:   Inconclusive,
			Note:      fmt.Sprintf("canonical instantiation inapplicable: %v", err),
			Instances: labels,
		}, nil
	}
	search, err := enumerate.FindCounterexample(s, instances, enumerate.Options{MaxSchedules: opts.MaxSchedules})
	if err != nil {
		return &Result{
			Outcome:   Inconclusive,
			Note:      fmt.Sprintf("canonical instantiation inapplicable: %v", err),
			Instances: labels,
		}, nil
	}
	res := &Result{Explored: search.Explored, Instances: labels}
	switch {
	case search.Found:
		res.Outcome = Realized
		res.Schedule = search.Schedule
		res.Graph = search.Graph
	case search.Exhausted:
		res.Outcome = Refuted
	default:
		res.Outcome = Inconclusive
		res.Note = "interleaving budget exhausted"
	}
	return res, nil
}

// population carries the global tuple population and foreign-key valuation
// shared by all instances.
type population struct {
	schema *relschema.Schema
	// tuples lists every tuple name per relation, in creation order.
	tuples map[string][]string
	// fkVal is the global valuation: foreign key -> dom tuple -> range
	// tuple. Grown consistently; conflicting requirements bump the entity
	// index instead of overwriting.
	fkVal map[string]map[string]string
	// deleted marks tuples already claimed by a delete in some instance:
	// the formalism allows at most one delete per tuple across the whole
	// schedule, and per-instance read/write tracking cannot see it.
	deleted map[string]bool
}

func newPopulation(s *relschema.Schema) *population {
	p := &population{
		schema:  s,
		tuples:  map[string][]string{},
		fkVal:   map[string]map[string]string{},
		deleted: map[string]bool{},
	}
	for _, f := range s.ForeignKeys() {
		p.fkVal[f.Name] = map[string]string{}
	}
	return p
}

// relTuple names the idx-th conflict tuple of a relation and registers it.
func (p *population) relTuple(rel string, idx int) string {
	name := "t_" + rel
	if idx > 1 {
		name = fmt.Sprintf("t_%s_%d", rel, idx)
	}
	p.register(rel, name)
	return name
}

func (p *population) register(rel, name string) {
	for _, existing := range p.tuples[rel] {
		if existing == name {
			return
		}
	}
	p.tuples[rel] = append(p.tuples[rel], name)
}

// maxEntityIndex bounds the per-group index search.
const maxEntityIndex = 8

// assignment builds the canonical assignment for instance i of the LTP.
func (p *population) assignment(l *btp.LTP, instance int) (instantiate.Assignment, error) {
	asg := instantiate.Assignment{
		Key:  map[*btp.StmtOcc]string{},
		Pred: map[*btp.StmtOcc][]string{},
		FK:   p.fkVal,
	}
	constraints := l.FKs()

	// Union-find over statements linked by FK annotations.
	parent := map[*btp.Stmt]*btp.Stmt{}
	var find func(q *btp.Stmt) *btp.Stmt
	find = func(q *btp.Stmt) *btp.Stmt {
		if parent[q] == nil || parent[q] == q {
			parent[q] = q
			return q
		}
		root := find(parent[q])
		parent[q] = root
		return root
	}
	union := func(a, b *btp.Stmt) { parent[find(a)] = find(b) }
	for _, c := range constraints {
		union(c.Src, c.Dst)
	}

	// Group occurrences by component, in first-occurrence order.
	var groupOrder []*btp.Stmt
	groups := map[*btp.Stmt][]*btp.StmtOcc{}
	for _, occ := range l.Stmts {
		root := find(occ.Stmt)
		if _, ok := groups[root]; !ok {
			groupOrder = append(groupOrder, root)
		}
		groups[root] = append(groups[root], occ)
	}

	usedRead := map[string]bool{}
	usedWrite := map[string]bool{}
	st := &instanceState{delPos: map[string]int{}, accPos: map[string][]int{}}
	for _, root := range groupOrder {
		occs := groups[root]
		if err := p.assignGroup(l, instance, occs, constraints, asg, usedRead, usedWrite, st); err != nil {
			return instantiate.Assignment{}, err
		}
	}
	return asg, nil
}

// instanceState tracks, per instance, where tuples are deleted and where
// they are key-accessed (statement positions). The MVCC engine executes a
// transaction's own operations against its own uncommitted state, so a
// key-based access after the same transaction's delete of that tuple would
// fail on replay even though the abstract schedule (which reads
// last-committed versions) allows it. Predicate reads are exempt: a
// deleted row simply falls out of the selection.
type instanceState struct {
	delPos map[string]int
	accPos map[string][]int
}

// assignGroup assigns one entity group, trying increasing entity indices
// until the strict instantiation form and the global FK valuation are both
// satisfied.
func (p *population) assignGroup(l *btp.LTP, instance int, occs []*btp.StmtOcc,
	constraints []btp.FKConstraint, asg instantiate.Assignment, usedRead, usedWrite map[string]bool,
	st *instanceState) error {

	inGroup := map[*btp.Stmt]bool{}
	for _, occ := range occs {
		inGroup[occ.Stmt] = true
	}

try:
	for idx := 1; idx <= maxEntityIndex; idx++ {
		keyTuple := map[*btp.StmtOcc]string{}
		predTuples := map[*btp.StmtOcc][]string{}
		newRead := map[string]bool{}
		newWrite := map[string]bool{}
		newDel := map[string]int{}
		newAcc := map[string][]int{}
		reads := func(q *btp.Stmt) bool {
			return q.Type == btp.KeySel || (q.ReadSet.Defined && !q.ReadSet.Set.Empty())
		}
		// deletedBefore reports whether this instance deletes the tuple at a
		// statement position strictly before pos.
		deletedBefore := func(tuple string, pos int) bool {
			if dp, ok := st.delPos[tuple]; ok && dp < pos {
				return true
			}
			if dp, ok := newDel[tuple]; ok && dp < pos {
				return true
			}
			return false
		}
		// accessedAfter reports whether this instance key-accesses the tuple
		// at a statement position strictly after pos.
		accessedAfter := func(tuple string, pos int) bool {
			for _, ap := range st.accPos[tuple] {
				if ap > pos {
					return true
				}
			}
			for _, ap := range newAcc[tuple] {
				if ap > pos {
					return true
				}
			}
			return false
		}
		fkAdd := map[string]map[string]string{}

		// Tentatively place every occurrence.
		for _, occ := range occs {
			q := occ.Stmt
			switch q.Type {
			case btp.Ins, btp.KeyDel:
				prefix := byte('d')
				if q.Type == btp.Ins {
					prefix = 'n'
				}
				tuple := fmt.Sprintf("%c_%s_%d_%d", prefix, q.Rel, instance, occ.Pos)
				if q.Type == btp.KeyDel {
					newDel[tuple] = occ.Pos
				}
				keyTuple[occ] = tuple
			case btp.KeySel, btp.KeyUpd:
				tuple := p.relTupleName(q.Rel, idx)
				if reads(q) && (usedRead[tuple] || newRead[tuple]) {
					continue try
				}
				if q.Type == btp.KeyUpd && (usedWrite[tuple] || newWrite[tuple]) {
					continue try
				}
				if deletedBefore(tuple, occ.Pos) {
					continue try // own earlier delete: the engine sees no row
				}
				if reads(q) {
					newRead[tuple] = true
				}
				if q.Type == btp.KeyUpd {
					newWrite[tuple] = true
				}
				newAcc[tuple] = append(newAcc[tuple], occ.Pos)
				keyTuple[occ] = tuple
			case btp.PredUpd, btp.PredDel:
				tuple := p.relTupleName(q.Rel, idx)
				writeBusy := usedWrite[tuple] || newWrite[tuple]
				readBusy := reads(q) && (usedRead[tuple] || newRead[tuple])
				if q.Type == btp.PredDel && p.deleted[tuple] {
					writeBusy = true // another instance already deletes it
				}
				if deletedBefore(tuple, occ.Pos) {
					writeBusy = true // own earlier delete: no row to touch
				}
				if q.Type == btp.PredDel && accessedAfter(tuple, occ.Pos) {
					// A later statement of this instance key-accesses the
					// tuple; deleting it here would make that access fail on
					// the engine, so the predicate simply does not match it.
					writeBusy = true
				}
				if writeBusy || readBusy {
					predTuples[occ] = nil // empty predicate match
					continue
				}
				newWrite[tuple] = true
				if reads(q) {
					newRead[tuple] = true
				}
				if q.Type == btp.PredDel {
					newDel[tuple] = occ.Pos
				}
				newAcc[tuple] = append(newAcc[tuple], occ.Pos)
				predTuples[occ] = []string{tuple}
			case btp.PredSel:
				// Resolved in the commit phase: reads every registered
				// tuple of the relation that remains readable and
				// valuation-consistent.
				predTuples[occ] = nil
			}
		}

		// Check and collect FK valuation requirements.
		dstTupleOf := func(d *btp.Stmt) (string, bool) {
			for _, occ := range occs {
				if occ.Stmt == d {
					return keyTuple[occ], true
				}
			}
			return "", false
		}
		addVal := func(fk, src, dst string) bool {
			if cur, ok := p.fkVal[fk][src]; ok && cur != dst {
				return false
			}
			if cur, ok := fkAdd[fk][src]; ok && cur != dst {
				return false
			}
			if fkAdd[fk] == nil {
				fkAdd[fk] = map[string]string{}
			}
			fkAdd[fk][src] = dst
			return true
		}
		for _, c := range constraints {
			if !inGroup[c.Src] || !inGroup[c.Dst] {
				continue
			}
			dstT, ok := dstTupleOf(c.Dst)
			if !ok {
				continue // dst statement does not occur in this unfolding
			}
			for _, occ := range occs {
				if occ.Stmt != c.Src {
					continue
				}
				switch {
				case c.Src.Type.IsKeyBased():
					if !addVal(c.FK, keyTuple[occ], dstT) {
						continue try
					}
				default:
					// Predicate source: its touched tuples are filtered to
					// valuation-consistent ones in the commit phase, but
					// tuples it updates/deletes must be consistent now.
					for _, tup := range predTuples[occ] {
						if !addVal(c.FK, tup, dstT) {
							continue try
						}
					}
				}
			}
		}

		// Commit: register tuples, resolve predicate selections, merge
		// valuation additions, and fill the assignment.
		for fk, m := range fkAdd {
			for src, dst := range m {
				p.fkVal[fk][src] = dst
			}
		}
		for occ, tuple := range keyTuple {
			if occ.Stmt.Type == btp.KeySel || occ.Stmt.Type == btp.KeyUpd {
				p.register(occ.Stmt.Rel, tuple)
			} else {
				p.register(occ.Stmt.Rel, tuple) // private ins/del tuples
			}
			asg.Key[occ] = tuple
		}
		for tu := range newRead {
			usedRead[tu] = true
		}
		for tu := range newWrite {
			usedWrite[tu] = true
		}
		for tu, pos := range newDel {
			st.delPos[tu] = pos
		}
		for tu, ps := range newAcc {
			st.accPos[tu] = append(st.accPos[tu], ps...)
		}
		for occ, tuples := range predTuples {
			if occ.Stmt.Type != btp.PredSel {
				if occ.Stmt.Type == btp.PredDel {
					for _, tup := range tuples {
						p.deleted[tup] = true
					}
				}
				asg.Pred[occ] = tuples
				continue
			}
			// Predicate selection: read everything readable and
			// consistent with the constraints naming this statement. The
			// match materializes per-tuple reads, so tuples this instance
			// deleted at an earlier position are out (the engine would see
			// no row), exactly like key-based accesses.
			var names []string
			for _, tup := range p.tuples[occ.Stmt.Rel] {
				if usedRead[tup] {
					continue
				}
				if dp, del := st.delPos[tup]; del && dp < occ.Pos {
					continue
				}
				ok := true
				for _, c := range constraints {
					if c.Src != occ.Stmt {
						continue
					}
					dstT, have := dstTupleOf(c.Dst)
					if !have {
						continue
					}
					if cur, bound := p.fkVal[c.FK][tup]; bound && cur != dstT {
						ok = false
						break
					} else if !bound {
						p.fkVal[c.FK][tup] = dstT
					}
				}
				if !ok {
					continue
				}
				usedRead[tup] = true
				st.accPos[tup] = append(st.accPos[tup], occ.Pos)
				names = append(names, tup)
			}
			asg.Pred[occ] = names
		}
		return nil
	}
	return fmt.Errorf("realize: no consistent entity index for a group of %s within %d attempts",
		l.Name, maxEntityIndex)
}

// relTupleName names without registering (registration happens at commit).
func (p *population) relTupleName(rel string, idx int) string {
	if idx > 1 {
		return fmt.Sprintf("t_%s_%d", rel, idx)
	}
	return "t_" + rel
}
