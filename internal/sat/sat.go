// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver: two-watched-literal propagation, 1UIP conflict analysis with
// clause learning, VSIDS-style activity decision heuristics, phase
// saving, and Luby-sequence restarts. It is the decision engine behind
// the bounded model checker (internal/bmc), standing in for the formal
// verification tool (JasperGold) of the paper's Error Lifting phase.
package sat

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

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func (b lbool) not() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	}
	return lUndef
}

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

type clause struct {
	lits   []Lit
	learnt bool
	act    float64
}

// Solver is a CDCL SAT solver instance. Zero value is not usable; create
// with New.
type Solver struct {
	clauses []*clause
	learnts []*clause

	watches [][]*clause // literal -> clauses watching it

	assign  []lbool // per variable
	level   []int32 // decision level of assignment
	reason  []*clause
	phase   []bool // saved phase
	trail   []Lit
	trailLm []int32 // decision-level marks into trail

	activity []float64
	varInc   float64
	claInc   float64
	order    *varHeap

	propHead int

	// Conflict analysis scratch.
	seen []bool

	// Stats
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	learntTotal  int64 // learnt clauses ever recorded (monotonic)

	// MaxConflicts bounds the search; exceeded -> Unknown (the paper's
	// "FF" formal-tool-timeout outcome). 0 means unbounded.
	MaxConflicts int64

	// learntBase is the live-learnt count that triggers the first
	// reduceDB (the trigger then rises with Conflicts/10).
	learntBase int

	unsatisfiable bool // empty clause added
}

// New creates an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, learntBase: 20000}
	s.order = &varHeap{s: s}
	return s
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// NumVars reports the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assign) }

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if l.Neg() {
		return v.not()
	}
	return v
}

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
	out := lits[:0:0]
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
	switch len(out) {
	case 0:
		s.unsatisfiable = true
		return false
	case 1:
		if !s.enqueue(out[0], nil) {
			s.unsatisfiable = true
			return false
		}
		return s.propagate() == nil || !s.markUnsat()
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *Solver) markUnsat() bool {
	s.unsatisfiable = true
	return true
}

func (s *Solver) watch(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(len(s.trailLm))
	s.reason[v] = from
	s.phase[v] = !l.Neg()
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns the conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.propHead < len(s.trail) {
		p := s.trail[s.propHead]
		s.propHead++
		s.Propagations++
		ws := s.watches[p]
		kept := ws[:0]
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Ensure the false literal is at position 1.
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: keep remaining watches and bail.
				kept = append(kept, ws[i+1:]...)
				s.watches[p] = kept
				return c
			}
		}
		s.watches[p] = kept
	}
	return nil
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
		s.reason[v] = nil
		s.order.pushIfAbsent(v)
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
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range confl.lits {
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
	return learnt, btLevel
}

func (s *Solver) record(learnt []Lit) {
	s.learntTotal++
	if len(learnt) == 1 {
		s.enqueue(learnt[0], nil)
		return
	}
	c := &clause{lits: learnt, learnt: true, act: s.claInc}
	// Watch the asserting literal and the highest-level other literal.
	best := 1
	for i := 2; i < len(learnt); i++ {
		if s.level[learnt[i].Var()] > s.level[learnt[best].Var()] {
			best = i
		}
	}
	c.lits[1], c.lits[best] = c.lits[best], c.lits[1]
	s.learnts = append(s.learnts, c)
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
	if confl := s.propagate(); confl != nil {
		s.unsatisfiable = true
		return Unsat
	}

	restart := int64(1)
	baseInterval := int64(100)
	conflictsAtStart := s.Conflicts

	for {
		limit := baseInterval * luby(restart)
		st := s.search(assumptions, limit)
		if st != Unknown {
			return st
		}
		if s.MaxConflicts > 0 && s.Conflicts-conflictsAtStart >= s.MaxConflicts {
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
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts reports the number of learnt clauses currently held (after
// any database reductions).
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// search runs CDCL until a verdict, a restart (conflict budget reached),
// or the global conflict cap. Unknown means "restart or cap".
func (s *Solver) search(assumptions []Lit, conflictBudget int64) Status {
	conflicts := int64(0)
	for {
		confl := s.propagate()
		if confl != nil {
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
		if s.MaxConflicts > 0 && s.Conflicts >= s.MaxConflicts {
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
			s.enqueue(a, nil)
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
		s.enqueue(MkLit(v, !s.phase[v]), nil)
	}
}

// Value returns the model value of variable v after a Sat verdict.
func (s *Solver) Value(v int) bool { return s.assign[v] == lTrue }

// varHeap is a max-heap on variable activity.
type varHeap struct {
	s       *Solver
	heap    []int
	indices map[int]int
}

func (h *varHeap) len() int { return len(h.heap) }

func (h *varHeap) less(a, b int) bool {
	return h.s.activity[h.heap[a]] > h.s.activity[h.heap[b]]
}

func (h *varHeap) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.indices[h.heap[a]] = a
	h.indices[h.heap[b]] = b
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

func (h *varHeap) push(v int) {
	if h.indices == nil {
		h.indices = make(map[int]int)
	}
	if _, ok := h.indices[v]; ok {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pushIfAbsent(v int) { h.push(v) }

func (h *varHeap) pop() int {
	v := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	delete(h.indices, v)
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	if i, ok := h.indices[v]; ok {
		h.up(i)
	}
}

// bumpClause raises a learnt clause's activity when it participates in
// conflict analysis.
func (s *Solver) bumpClause(c *clause) {
	if !c.learnt {
		return
	}
	c.act += s.claInc
	if c.act > 1e100 {
		for _, l := range s.learnts {
			l.act *= 1e-100
		}
		s.claInc *= 1e-100
	}
}

// reduceDB discards the less active half of the learnt clauses (keeping
// binary clauses and current reasons), bounding memory on long UNSAT
// proofs.
func (s *Solver) reduceDB() {
	isReason := map[*clause]bool{}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nil {
			isReason[r] = true
		}
	}
	// Median activity by sampling-free selection: sort a copy of the
	// activities.
	acts := make([]float64, 0, len(s.learnts))
	for _, c := range s.learnts {
		acts = append(acts, c.act)
	}
	median := quickSelect(acts, len(acts)/2)
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if len(c.lits) <= 2 || isReason[c] || c.act >= median {
			kept = append(kept, c)
			continue
		}
		s.unwatch(c)
	}
	s.learnts = kept
}

// unwatch removes a clause from its two watcher lists.
func (s *Solver) unwatch(c *clause) {
	for _, w := range []Lit{c.lits[0].Not(), c.lits[1].Not()} {
		ws := s.watches[w]
		for i, cc := range ws {
			if cc == c {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
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
