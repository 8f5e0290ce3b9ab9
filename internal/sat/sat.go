// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver: two-watched-literal propagation, 1UIP conflict analysis with
// clause learning, VSIDS-style activity decision heuristics, phase
// saving, and Luby-sequence restarts. It is the decision engine behind
// the bounded model checker (internal/bmc), standing in for the formal
// verification tool (JasperGold) of the paper's Error Lifting phase.
//
// Storage is flat: every clause of two or more literals lives in one
// []Lit arena and is named by its offset (a cref), the decision heap
// finds a variable through a position table, and watch lists start on
// capacity cut from a slab — a BMC query streams tens of thousands of
// clauses through the solver for a few hundred conflicts, so what a
// clause costs to store and reach is what a query costs.
package sat

import "math"

// Lit is a literal: variable index shifted left once, with the low bit
// set for negation. Variables are dense indices starting at 0.
type Lit int32

// MkLit builds a literal from a variable index and a sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// lbool is a variable's assignment. A literal's value is its
// variable's xor its sign bit, which maps true and false onto each
// other and lUndef onto itself or 3: compare a literal's value with
// lTrue or lFalse, never with lUndef.
type lbool int8

const (
	lTrue lbool = iota
	lFalse
	lUndef
)

// Stats is a snapshot of the solver's cumulative search counters. All
// fields are monotonic across Solve calls on one solver, so incremental
// callers can report the total effort behind a sequence of queries (and
// difference two snapshots for per-query effort).
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learnts      int64 // learnt clauses recorded (cumulative, incl. later-reduced ones)
}

// Add returns the field-wise sum of two snapshots, for aggregation
// across solvers.
func (a Stats) Add(b Stats) Stats {
	return Stats{
		Conflicts:    a.Conflicts + b.Conflicts,
		Decisions:    a.Decisions + b.Decisions,
		Propagations: a.Propagations + b.Propagations,
		Restarts:     a.Restarts + b.Restarts,
		Learnts:      a.Learnts + b.Learnts,
	}
}

// Status is a solver verdict.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// cref names a clause by its offset in Solver.arena. There the clause
// is a two-word header — its length, then its index in learnts/learntAct
// (-1 for a problem clause) — followed by its literals.
type cref int32

const noClause cref = -1

// watchCap is the room a literal's watch list starts with: most
// literals of a Tseitin encoding are watched by two to four clauses.
const watchCap = 4

// Solver is a CDCL SAT solver instance. Zero value is not usable; create
// with New.
type Solver struct {
	arena      []Lit
	numClauses int       // problem clauses in the arena
	learnts    []cref    // live learnt clauses, in the order recorded
	learntAct  []float64 // learnts[i]'s activity

	watches [][]cref // literal -> clauses watching it
	slab    []cref   // unused tail of the current watch-list slab
	slab0   []cref   // the whole slab a Reset started this life on
	carved  int      // room cut from slabs in this life

	assign  []lbool // per variable
	level   []int32 // decision level of assignment
	reason  []cref
	phase   []bool // saved phase
	trail   []Lit
	trailLm []int32 // decision-level marks into trail

	activity []float64
	varInc   float64
	claInc   float64
	order    *varHeap

	propHead int

	// Scratch: conflict analysis marks and the learnt clause under
	// construction; the simplified clause inside AddClause.
	seen      []bool
	learntBuf []Lit
	addBuf    []Lit

	// Stats
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	learntTotal  int64 // learnt clauses ever recorded (monotonic)

	// MaxConflicts bounds each Solve call; exceeded -> Unknown (the
	// paper's "FF" formal-tool-timeout outcome). 0 means unbounded.
	MaxConflicts int64

	// learntBase is the live-learnt count that triggers the first
	// reduceDB (the trigger then rises with Conflicts/10).
	learntBase int

	unsatisfiable bool // empty clause added
}

// New creates an empty solver.
func New() *Solver {
	s := &Solver{}
	s.order = &varHeap{s: s}
	s.Reset()
	return s
}

// Reset empties the solver: no variables, no clauses, no learnt facts,
// counters and budgets as New returns them. What it keeps is room — the
// arena, the per-variable arrays, the heap and the scratch buffers stay
// allocated at length zero, and the watch lists of the next life are cut
// from one slab as large as all the room this life cut — so a caller
// that solves one formula after another on the same solver stops paying
// for growing each from nothing. A search after Reset is the search a
// new solver would make: every field that steers it is listed here or
// takes its zero value, and NewVar writes each per-variable entry it
// hands out.
func (s *Solver) Reset() {
	slab := s.slab0
	if s.carved > len(slab) {
		slab = make([]cref, s.carved)
	}
	clear(s.watches) // drop the lists' hold on this life's slabs
	order := s.order
	order.heap, order.pos = order.heap[:0], order.pos[:0]
	*s = Solver{
		arena:     s.arena[:0],
		learnts:   s.learnts[:0],
		learntAct: s.learntAct[:0],
		watches:   s.watches[:0],
		slab:      slab,
		slab0:     slab,
		assign:    s.assign[:0],
		level:     s.level[:0],
		reason:    s.reason[:0],
		phase:     s.phase[:0],
		trail:     s.trail[:0],
		trailLm:   s.trailLm[:0],
		activity:  s.activity[:0],
		seen:      s.seen[:0],
		learntBuf: s.learntBuf[:0],
		addBuf:    s.addBuf[:0],
		order:     order,

		varInc:     1,
		claInc:     1,
		learntBase: 20000,
	}
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(room(s.assign, 1), lUndef)
	s.level = append(room(s.level, 1), 0)
	s.reason = append(room(s.reason, 1), noClause)
	s.phase = append(room(s.phase, 1), false)
	s.activity = append(room(s.activity, 1), 0)
	s.seen = append(room(s.seen, 1), false)
	s.trail = room(s.trail, len(s.assign)-len(s.trail))
	s.watches = append(room(s.watches, 2), s.carve(watchCap), s.carve(watchCap))
	s.order.pos = append(room(s.order.pos, 1), -1)
	s.order.heap = room(s.order.heap, 1)
	s.order.push(v)
	return v
}

// room returns s with capacity for n more elements, at least doubling
// when it has to move: append alone grows a large slice by a quarter,
// which copies a formula that arrives one variable and one clause at a
// time five times over.
func room[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make([]T, 0, 2*cap(s)+n), s...)
}

// NumVars reports the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assign) }

func (s *Solver) value(l Lit) lbool { return s.assign[l>>1] ^ lbool(l&1) }

// AddClause adds a clause (a disjunction of literals). It returns false
// if the formula is already trivially unsatisfiable. Clauses may be
// added between Solve calls: the solver first rewinds to decision level
// 0, so the clause is judged against root-level facts only — never
// against leftover decisions of a previous model.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsatisfiable {
		return false
	}
	s.cancelUntil(0)
	// Simplify: drop duplicate/false literals, detect tautologies.
	out := s.addBuf[:0]
	for _, l := range lits {
		if s.value(l) == lTrue && s.level[l.Var()] == 0 {
			return true // satisfied at top level
		}
		if s.value(l) == lFalse && s.level[l.Var()] == 0 {
			continue // always-false literal
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
			}
			if o == l.Not() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.addBuf = out
	switch len(out) {
	case 0:
		s.unsatisfiable = true
		return false
	case 1:
		if !s.enqueue(out[0], noClause) {
			s.unsatisfiable = true
			return false
		}
		return s.propagate() == noClause || !s.markUnsat()
	}
	s.numClauses++
	s.watch(s.alloc(out, -1))
	return true
}

// alloc appends a clause to the arena; slot is its learnt index or -1.
func (s *Solver) alloc(lits []Lit, slot int) cref {
	if len(s.arena)+2+len(lits) > math.MaxInt32 {
		panic("sat: clause arena exceeds 2^31 literals")
	}
	c := cref(len(s.arena))
	s.arena = append(append(room(s.arena, 2+len(lits)), Lit(len(lits)), Lit(slot)), lits...)
	return c
}

// lits is the literal slice of a clause, in place: swaps made through
// it are the clause's new literal order.
func (s *Solver) lits(c cref) []Lit {
	return s.arena[c+2 : c+2+cref(s.arena[c])]
}

func (s *Solver) markUnsat() bool {
	s.unsatisfiable = true
	return true
}

func (s *Solver) watch(c cref) {
	lits := s.lits(c)
	s.addWatch(lits[0].Not(), c)
	s.addWatch(lits[1].Not(), c)
}

// addWatch appends c to l's watch list. A full list moves to twice the
// room, cut from the slab like the first (its old room stays behind
// there, unused).
func (s *Solver) addWatch(l Lit, c cref) {
	ws := s.watches[l]
	if len(ws) == cap(ws) {
		ws = append(s.carve(2*cap(ws)), ws...)
	}
	s.watches[l] = append(ws, c)
}

// carve cuts an empty watch list with room for n clauses from the slab.
// A new slab is as large as all the lists' first rooms so far, so a
// solver of any size allocates O(log variables) of them.
func (s *Solver) carve(n int) []cref {
	if len(s.slab) < n {
		s.slab = make([]cref, n+watchCap*len(s.watches))
	}
	s.carved += n
	ws := s.slab[:0:n]
	s.slab = s.slab[n:]
	return ws
}

func (s *Solver) enqueue(l Lit, from cref) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.assign[v] = lbool(l & 1)
	s.level[v] = int32(len(s.trailLm))
	s.reason[v] = from
	s.phase[v] = !l.Neg()
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns the conflicting clause or
// noClause. What it leaves behind is read later: a unit or conflicting
// clause ends with its implied (or last-tried) literal at lits[0] and
// the literal that just became false at lits[1], which is the order
// analyze resolves in and the lits[0] reduceDB recognises a reason by;
// and each watch list keeps the order its clauses were kept or moved in,
// which is the order the next propagation finds its units and conflicts.
func (s *Solver) propagate() cref {
	for s.propHead < len(s.trail) {
		p := s.trail[s.propHead]
		s.propHead++
		s.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			lits := s.lits(c)
			// Ensure the false literal is at position 1.
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if s.value(lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.addWatch(lits[1].Not(), c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, c)
			if !s.enqueue(lits[0], c) {
				// Conflict: keep remaining watches and bail.
				kept = append(kept, ws[i+1:]...)
				s.watches[p] = kept
				return c
			}
		}
		s.watches[p] = kept
	}
	return noClause
}

func (s *Solver) decisionLevel() int { return len(s.trailLm) }

func (s *Solver) newDecisionLevel() {
	s.trailLm = append(s.trailLm, int32(len(s.trail)))
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLm[lvl]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = noClause
		s.order.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLm = s.trailLm[:lvl]
	s.propHead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

// analyze performs 1UIP conflict analysis; returns the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl cref) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range s.lits(confl) {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if int(s.level[v]) >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find the next marked literal on the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		confl = s.reason[v]
	}

	// Compute the backtrack level (max level among the other literals).
	btLevel := 0
	for i := 1; i < len(learnt); i++ {
		if int(s.level[learnt[i].Var()]) > btLevel {
			btLevel = int(s.level[learnt[i].Var()])
		}
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	s.learntBuf = learnt
	return learnt, btLevel
}

func (s *Solver) record(learnt []Lit) {
	s.learntTotal++
	if len(learnt) == 1 {
		s.enqueue(learnt[0], noClause)
		return
	}
	// Watch the asserting literal and the highest-level other literal.
	best := 1
	for i := 2; i < len(learnt); i++ {
		if s.level[learnt[i].Var()] > s.level[learnt[best].Var()] {
			best = i
		}
	}
	learnt[1], learnt[best] = learnt[best], learnt[1]
	c := s.alloc(learnt, len(s.learnts))
	s.learnts = append(s.learnts, c)
	s.learntAct = append(s.learntAct, s.claInc)
	s.watch(c)
	s.enqueue(learnt[0], c)
}

// luby computes the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// Solve searches for a model under the given assumptions. It returns Sat
// with the model available via Value, Unsat if no model exists under the
// assumptions (the formula itself may still be satisfiable), or Unknown
// if MaxConflicts was exceeded.
//
// Solve may be called repeatedly on one solver, with clauses and
// variables added and assumptions changed between calls; every call
// first rewinds to decision level 0, so no decision or pseudo-decision
// from an earlier call leaks into the new query. Learnt clauses are
// always implied by the clause database alone — never by assumptions —
// so everything learnt in one call remains sound for all later calls.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if s.unsatisfiable {
		return Unsat
	}
	// Rewind any trail left by a previous Solve call: its decisions (and
	// its assumptions' pseudo-decisions) are not facts, and the new
	// assumption levels must start at the root.
	s.cancelUntil(0)
	if s.propagate() != noClause {
		s.unsatisfiable = true
		return Unsat
	}

	restart := int64(1)
	baseInterval := int64(100)
	// MaxConflicts budgets this call: stop is the cumulative count at
	// which it gives up, however many conflicts earlier calls spent.
	stop := int64(math.MaxInt64)
	if s.MaxConflicts > 0 {
		stop = s.Conflicts + s.MaxConflicts
	}

	for {
		limit := baseInterval * luby(restart)
		st := s.search(assumptions, limit, stop)
		if st != Unknown {
			return st
		}
		if s.Conflicts >= stop {
			s.cancelUntil(0)
			return Unknown
		}
		s.Restarts++
		restart++
	}
}

// Stats snapshots the cumulative search counters.
func (s *Solver) Stats() Stats {
	return Stats{
		Conflicts:    s.Conflicts,
		Decisions:    s.Decisions,
		Propagations: s.Propagations,
		Restarts:     s.Restarts,
		Learnts:      s.learntTotal,
	}
}

// NumClauses reports the number of problem (non-learnt) clauses held.
func (s *Solver) NumClauses() int { return s.numClauses }

// search runs CDCL until a verdict, a restart (conflict budget reached),
// or the call's conflict cap (cumulative count stop). Unknown means
// "restart or cap".
func (s *Solver) search(assumptions []Lit, conflictBudget, stop int64) Status {
	conflicts := int64(0)
	for {
		confl := s.propagate()
		if confl != noClause {
			s.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.unsatisfiable = true
				return Unsat
			}
			// If the conflict is at or below the assumption levels, the
			// assumptions are inconsistent with the formula.
			learnt, btLevel := s.analyze(confl)
			if s.decisionLevel() <= len(assumptions) {
				s.cancelUntil(0)
				return Unsat
			}
			if len(learnt) == 1 {
				// A unit learnt is a root-level fact: backtrack below the
				// assumption pseudo-decisions so it is enqueued at level 0
				// and survives restarts and later Solve calls (the search
				// loop re-applies the assumptions afterwards).
				s.cancelUntil(0)
			} else {
				// Never undo assumption pseudo-decisions for an ordinary
				// learnt: backtrack at most to the last assumption level.
				if btLevel < len(assumptions) {
					btLevel = len(assumptions)
				}
				s.cancelUntil(btLevel)
			}
			s.record(learnt)
			s.varInc /= 0.95
			s.claInc /= 0.999
			if len(s.learnts) > s.learntBase+int(s.Conflicts/10) {
				s.reduceDB()
			}
			continue
		}

		if conflicts >= conflictBudget {
			s.cancelUntil(0)
			return Unknown
		}
		if s.Conflicts >= stop {
			s.cancelUntil(0)
			return Unknown
		}

		// Apply assumptions as pseudo-decisions first.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				s.newDecisionLevel() // already satisfied; placeholder level
				continue
			case lFalse:
				s.cancelUntil(0)
				return Unsat
			}
			s.newDecisionLevel()
			s.enqueue(a, noClause)
			continue
		}

		// Pick a branching variable.
		v := -1
		for s.order.len() > 0 {
			cand := s.order.pop()
			if s.assign[cand] == lUndef {
				v = cand
				break
			}
		}
		if v == -1 {
			return Sat // all variables assigned
		}
		s.Decisions++
		s.newDecisionLevel()
		s.enqueue(MkLit(v, !s.phase[v]), noClause)
	}
}

// Value returns the model value of variable v after a Sat verdict.
func (s *Solver) Value(v int) bool { return s.assign[v] == lTrue }

// varHeap is a max-heap on variable activity. pos[v] is v's index in
// heap, -1 while v is not in it.
type varHeap struct {
	s    *Solver
	heap []int32
	pos  []int32
}

func (h *varHeap) len() int { return len(h.heap) }

func (h *varHeap) less(a, b int) bool {
	return h.s.activity[h.heap[a]] > h.s.activity[h.heap[b]]
}

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.pos[h.heap[a]] = int32(a)
	h.pos[h.heap[b]] = int32(b)
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.heap) && h.less(l, smallest) {
			smallest = l
		}
		if r < len(h.heap) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

// push inserts v unless it is already in the heap.
func (h *varHeap) push(v int) {
	if h.pos[v] >= 0 {
		return
	}
	h.heap = append(h.heap, int32(v))
	h.pos[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return int(v)
}

func (h *varHeap) update(v int) {
	if i := h.pos[v]; i >= 0 {
		h.up(int(i))
	}
}

// bumpClause raises a learnt clause's activity when it participates in
// conflict analysis.
func (s *Solver) bumpClause(c cref) {
	slot := s.arena[c+1]
	if slot < 0 {
		return
	}
	s.learntAct[slot] += s.claInc
	if s.learntAct[slot] > 1e100 {
		for i := range s.learntAct {
			s.learntAct[i] *= 1e-100
		}
		s.claInc *= 1e-100
	}
}

// reduceDB discards the less active half of the learnt clauses (keeping
// binary clauses and current reasons), bounding memory on long UNSAT
// proofs.
func (s *Solver) reduceDB() {
	// Median activity by sampling-free selection: sort a copy of the
	// activities.
	median := quickSelect(append([]float64(nil), s.learntAct...), len(s.learntAct)/2)
	kept := 0
	for i, c := range s.learnts {
		lits := s.lits(c)
		// A clause is the reason of its lits[0] or of nothing: enqueue
		// is handed lits[0], and propagate never moves a true literal.
		if len(lits) <= 2 || s.reason[lits[0].Var()] == c || s.learntAct[i] >= median {
			s.learnts[kept], s.learntAct[kept] = c, s.learntAct[i]
			s.arena[c+1] = Lit(kept)
			kept++
			continue
		}
		s.unwatch(c)
	}
	s.learnts, s.learntAct = s.learnts[:kept], s.learntAct[:kept]
	s.compact()
}

// unwatch removes a clause from its two watcher lists.
func (s *Solver) unwatch(c cref) {
	for _, l := range s.lits(c)[:2] {
		ws := s.watches[l.Not()]
		for i, cc := range ws {
			if cc == c {
				ws[i] = ws[len(ws)-1]
				s.watches[l.Not()] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// compact squeezes the clauses reduceDB unwatched out of the arena: the
// live clauses are exactly those on a watch list, so each is copied to
// a fresh arena the first time a list names it, its old header is
// turned into a forwarding address (length -1, then the new cref), and
// every cref held anywhere — watch lists, learnts, reasons — is
// rewritten through it. No list changes order.
func (s *Solver) compact() {
	to := make([]Lit, 0, len(s.arena))
	move := func(c cref) cref {
		if n := s.arena[c]; n >= 0 {
			to = append(to, s.arena[c:c+2+cref(n)]...)
			s.arena[c], s.arena[c+1] = -1, Lit(len(to))-2-n
		}
		return cref(s.arena[c+1])
	}
	for _, ws := range s.watches {
		for i, c := range ws {
			ws[i] = move(c)
		}
	}
	for i, c := range s.learnts {
		s.learnts[i] = move(c)
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != noClause {
			s.reason[l.Var()] = move(r)
		}
	}
	s.arena = to
}

// quickSelect returns the k-th smallest element (destructive).
func quickSelect(a []float64, k int) float64 {
	if len(a) == 0 {
		return 0
	}
	lo, hi := 0, len(a)-1
	for lo < hi {
		pivot := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return a[k]
}
