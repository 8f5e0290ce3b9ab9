package sat

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// The search-trajectory pins. Every expected value in this file was
// recorded on the pointer-per-clause solver (commit 2613d53) and is the
// differential oracle for any change to the solver's storage: a solver
// that makes the same decisions, propagations, conflicts and learnt
// clauses in the same order reproduces every counter and every model
// bit below; one that reorders a watch list or a clause's literals does
// not. A storage change that moves a pin is wrong — do not re-record.

// trajectory is what one solver run is pinned to.
type trajectory struct {
	status  Status
	stats   Stats
	clauses int
	model   uint64 // FNV-1a over the model bits (and the statuses of an incremental sequence)
}

func (tr trajectory) String() string {
	return fmt.Sprintf("{%d, Stats{%d, %d, %d, %d, %d}, %d, %#x}", tr.status,
		tr.stats.Conflicts, tr.stats.Decisions, tr.stats.Propagations, tr.stats.Restarts, tr.stats.Learnts,
		tr.clauses, tr.model)
}

// modelHash folds the current assignment of every variable into h.
func modelHash(s *Solver, h uint64) uint64 {
	f := fnv.New64a()
	var b [9]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(h >> (8 * i))
	}
	f.Write(b[:8])
	for v := 0; v < s.NumVars(); v++ {
		b[0] = 0
		if s.Value(v) {
			b[0] = 1
		}
		f.Write(b[:1])
	}
	return f.Sum64()
}

func observe(s *Solver, st Status) trajectory {
	tr := trajectory{status: st, stats: s.Stats(), clauses: s.NumClauses()}
	if st == Sat {
		tr.model = modelHash(s, 0)
	}
	return tr
}

// pigeonhole adds php(pigeons, holes) to a fresh solver.
func pigeonhole(pigeons, holes int) *Solver {
	s := New()
	v := func(p, h int) int { return p*holes + h }
	for i := 0; i < pigeons*holes; i++ {
		s.NewVar()
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = MkLit(v(p, h), false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(v(p1, h), true), MkLit(v(p2, h), true))
			}
		}
	}
	return s
}

// random3SAT adds a seeded uniform 3-CNF at the given clause/variable
// ratio to a fresh solver and returns the clauses beside it.
func random3SAT(seed int64, nVars int, ratio float64) (*Solver, [][3]Lit) {
	s := New()
	return s, threeCNF(s, rand.New(rand.NewSource(seed)), nVars, int(float64(nVars)*ratio))
}

func satisfies(s *Solver, clauses [][3]Lit) bool {
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			if s.Value(l.Var()) != l.Neg() {
				ok = true
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// incrementalSequence is the unroller's access pattern on one solver:
// each round grows the variable set, adds ternary and binary clauses
// over everything allocated so far, guards one more clause with a
// fresh activation literal, solves under that literal plus up to three
// random assumptions, and retires a refuted guard with a unit clause.
// The per-round statuses and models are chained into one hash.
func incrementalSequence(seed int64) trajectory {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	randLit := func() Lit { return MkLit(rng.Intn(s.NumVars()), rng.Intn(2) == 0) }
	h := uint64(0)
	var last Status
	for round := 0; round < 10; round++ {
		for i := 0; i < 60; i++ {
			s.NewVar()
		}
		for i := 0; i < 150; i++ {
			s.AddClause(randLit(), randLit(), randLit())
		}
		for i := 0; i < 3; i++ {
			s.AddClause(randLit(), randLit())
		}
		guarded := []Lit{randLit(), randLit()}
		act := s.NewVar()
		s.AddClause(append(guarded, MkLit(act, true))...)
		assumptions := []Lit{MkLit(act, false)}
		for i := rng.Intn(4); i > 0; i-- {
			assumptions = append(assumptions, randLit())
		}
		last = s.Solve(assumptions...)
		if last == Unsat {
			s.AddClause(MkLit(act, true))
		}
		h = h*31 + uint64(last)
		if last == Sat {
			h = modelHash(s, h)
		}
	}
	return trajectory{status: last, stats: s.Stats(), clauses: s.NumClauses(), model: h}
}

func TestSearchTrajectoryPinned(t *testing.T) {
	solve3SAT := func(seed int64, nVars int, ratio float64) func(*testing.T) trajectory {
		return func(t *testing.T) trajectory {
			s, clauses := random3SAT(seed, nVars, ratio)
			st := s.Solve()
			if st == Sat && !satisfies(s, clauses) {
				t.Error("model violates a clause")
			}
			return observe(s, st)
		}
	}
	php := func(p, h int) func(*testing.T) trajectory {
		return func(*testing.T) trajectory { s := pigeonhole(p, h); return observe(s, s.Solve()) }
	}
	incremental := func(seed int64) func(*testing.T) trajectory {
		return func(*testing.T) trajectory { return incrementalSequence(seed) }
	}
	for _, tc := range []struct {
		name string
		run  func(*testing.T) trajectory
		want trajectory
	}{
		{"php-7-6", php(7, 6), trajectory{Unsat, Stats{803, 978, 10628, 5, 802}, 133, 0x0}},
		{"php-8-7", php(8, 7), trajectory{Unsat, Stats{3393, 4146, 39194, 16, 3392}, 204, 0x0}},
		{"3sat-150-4.26-seed1", solve3SAT(1, 150, 4.26), trajectory{Sat, Stats{2970, 3614, 91611, 14, 2970}, 630, 0x7d91922c2fdb29ca}},
		{"3sat-150-4.26-seed2", solve3SAT(2, 150, 4.26), trajectory{Sat, Stats{100, 169, 3141, 1, 100}, 635, 0x6a9359d6298359d0}},
		{"3sat-150-4.26-seed3", solve3SAT(3, 150, 4.26), trajectory{Sat, Stats{1539, 1908, 48343, 9, 1539}, 635, 0xfd3a5b186be399fb}},
		{"3sat-150-4.26-seed4", solve3SAT(4, 150, 4.26), trajectory{Unsat, Stats{4639, 5550, 147671, 24, 4638}, 633, 0x0}},
		{"3sat-200-4.0-seed5", solve3SAT(5, 200, 4.0), trajectory{Sat, Stats{1161, 1506, 46446, 6, 1161}, 793, 0x127ac66045450fcf}},
		{"3sat-120-4.6-seed6", solve3SAT(6, 120, 4.6), trajectory{Sat, Stats{267, 341, 7396, 2, 267}, 548, 0xa02118aae031fdc1}},
		{"incremental-seed1", incremental(1), trajectory{Unsat, Stats{276, 1036, 11574, 1, 274}, 1375, 0x195cd92399ca27cc}},
		{"incremental-seed2", incremental(2), trajectory{Unsat, Stats{484, 1517, 19997, 2, 483}, 1375, 0xe415c55731e4b04a}},
		{"incremental-seed3", incremental(3), trajectory{Unsat, Stats{535, 1350, 19003, 4, 532}, 1536, 0xe6d55355ce3a955c}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("trajectory moved:\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}

// reduceInstance is one solver set up so that the paths no ledger
// workload reaches all run: learntBase is lowered so reduceDB fires
// every few hundred conflicts, and claInc starts at the rescale
// threshold so the first bump of a learnt clause rescales (varInc gets
// there by itself after ~4,500 conflicts).
func reduceInstance(s *Solver) *Solver {
	s.learntBase = 100
	s.claInc = 1e100
	return s
}

// checkColdPathsRan proves from the solver's end state that the run
// went through at least two reduceDB rounds and both 1e100 rescales.
func checkColdPathsRan(t *testing.T, s *Solver) {
	t.Helper()
	// One reduceDB round deletes at most half of the live learnts, and
	// there are never more than learntBase+Conflicts/10+1 of those; unit
	// learnts (at most one per variable) are never stored.
	deleted := int(s.learntTotal) - s.NumVars() - len(s.learnts)
	oneRound := (s.learntBase + int(s.Conflicts/10) + 1) / 2
	if deleted <= oneRound {
		t.Errorf("%d learnts deleted, one reduceDB round explains up to %d: fewer than two rounds ran", deleted, oneRound)
	}
	// claInc started at 1e100 and only ever grows, except by a rescale.
	if s.claInc >= 1e100 {
		t.Errorf("claInc = %g: the clause-activity rescale never ran", s.claInc)
	}
	// varInc is 0.95^-Conflicts unless a rescale pulled it back.
	if unscaled := math.Pow(1/0.95, float64(s.Conflicts)); unscaled < 1e110 || s.varInc*1e50 > unscaled {
		t.Errorf("varInc = %g after %d conflicts (unscaled %g): the variable-activity rescale never ran", s.varInc, s.Conflicts, unscaled)
	}
}

// TestReduceDBTrajectoryPinned drives clause deletion, reason
// protection and both activity rescales — code no lift query gets near
// (20,000 live learnts, 1e100 activities) — on one UNSAT instance with
// a known answer and one SAT instance whose model is checked, and pins
// both trajectories like the ones above.
func TestReduceDBTrajectoryPinned(t *testing.T) {
	t.Run("php-9-8", func(t *testing.T) {
		s := reduceInstance(pigeonhole(9, 8))
		got := observe(s, s.Solve())
		if got.status != Unsat {
			t.Fatalf("php(9,8) = %v, want UNSAT", got.status)
		}
		checkColdPathsRan(t, s)
		if want := (trajectory{Unsat, Stats{23346, 28881, 296699, 84, 23345}, 297, 0x0}); got != want {
			t.Errorf("trajectory moved:\n got %v\nwant %v", got, want)
		}
	})
	t.Run("3sat-250-4.2-seed11", func(t *testing.T) {
		s, clauses := random3SAT(11, 250, 4.2)
		reduceInstance(s)
		got := observe(s, s.Solve())
		if got.status != Sat || !satisfies(s, clauses) {
			t.Fatalf("status %v, model valid %v; want a valid model", got.status, satisfies(s, clauses))
		}
		checkColdPathsRan(t, s)
		if want := (trajectory{Sat, Stats{20310, 25162, 903448, 69, 20310}, 1039, 0xe4238c57cc64dea9}); got != want {
			t.Errorf("trajectory moved:\n got %v\nwant %v", got, want)
		}
	})
}
