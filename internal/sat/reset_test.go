package sat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// sameState fails unless got holds, field for field, what want holds:
// every counter and scalar that steers or reports the search, and the
// contents (never the capacity) of the arena, the watch lists, the
// per-variable arrays, the trail and the heap. Two solvers in the same
// state make the same search from there on.
func sameState(t *testing.T, got, want *Solver) {
	t.Helper()
	type scalars struct {
		stats                            Stats
		numClauses, propHead, learntBase int
		varInc, claInc                   float64
		maxConflicts                     int64
		unsatisfiable                    bool
	}
	of := func(s *Solver) scalars {
		return scalars{s.Stats(), s.numClauses, s.propHead, s.learntBase, s.varInc, s.claInc, s.MaxConflicts, s.unsatisfiable}
	}
	if g, w := of(got), of(want); g != w {
		t.Errorf("scalars differ:\n got %+v\nwant %+v", g, w)
	}
	same(t, "arena", got.arena, want.arena)
	same(t, "learnts", got.learnts, want.learnts)
	same(t, "learntAct", got.learntAct, want.learntAct)
	same(t, "assign", got.assign, want.assign)
	same(t, "level", got.level, want.level)
	same(t, "reason", got.reason, want.reason)
	same(t, "phase", got.phase, want.phase)
	same(t, "trail", got.trail, want.trail)
	same(t, "trailLm", got.trailLm, want.trailLm)
	same(t, "activity", got.activity, want.activity)
	same(t, "seen", got.seen, want.seen)
	same(t, "heap", got.order.heap, want.order.heap)
	same(t, "heap positions", got.order.pos, want.order.pos)
	if len(got.watches) != len(want.watches) {
		t.Fatalf("%d watch lists, want %d", len(got.watches), len(want.watches))
	}
	for l := range got.watches {
		if !slices.Equal(got.watches[l], want.watches[l]) {
			t.Fatalf("literal %d is watched by %v, want %v", l, got.watches[l], want.watches[l])
		}
	}
}

func same[T comparable](t *testing.T, name string, got, want []T) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s differs: %d entries, want %d", name, len(got), len(want))
	}
}

// addPigeonhole adds php(pigeons, holes) to an empty solver.
func addPigeonhole(s *Solver, pigeons, holes int) {
	v := func(p, h int) int { return p*holes + h }
	for i := 0; i < pigeons*holes; i++ {
		s.NewVar()
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := range lits {
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
}

// TestResetReplaysFreshTrajectory: a solver that has lived through one
// problem and been Reset is, before and after it is given a second one,
// in the state of a solver that only ever saw the second — every Stats
// field, the model, the arena and every watch list. The first lives are
// chosen for what they leave behind: a model on the trail and saved
// phases (3-SAT), lowered reduceDB trigger, rescaled activities and a
// compacted arena (the reduceDB instance), an empty clause
// (contradiction), a conflict budget (budgeted), and both less and more
// storage than the second problem needs.
func TestResetReplaysFreshTrajectory(t *testing.T) {
	type life struct {
		name string
		run  func(*Solver) Status
	}
	sat3 := func(seed int64, nVars int, ratio float64, want Status) life {
		return life{fmt.Sprintf("3sat-%d-seed%d", nVars, seed), func(s *Solver) Status {
			clauses := threeCNF(s, rand.New(rand.NewSource(seed)), nVars, int(float64(nVars)*ratio))
			st := s.Solve()
			if st != want || (st == Sat && !satisfies(s, clauses)) {
				t.Errorf("3sat seed %d: %v (want %v), or a model that violates a clause", seed, st, want)
			}
			return st
		}}
	}
	php := func(p, h int) life {
		return life{fmt.Sprintf("php-%d-%d", p, h), func(s *Solver) Status { addPigeonhole(s, p, h); return s.Solve() }}
	}
	firsts := []life{
		sat3(2, 150, 4.26, Sat),
		sat3(6, 40, 3.0, Sat),
		php(7, 6),
		{"reduceDB", func(s *Solver) Status {
			addPigeonhole(reduceInstance(s), 8, 7)
			st := s.Solve()
			checkColdPathsRan(t, s)
			return st
		}},
		{"contradiction", func(s *Solver) Status {
			v := s.NewVar()
			s.AddClause(MkLit(v, false))
			s.AddClause(MkLit(v, true))
			if !s.unsatisfiable {
				t.Error("x and not-x did not leave the solver unsatisfiable")
			}
			return s.Solve()
		}},
		{"budgeted", func(s *Solver) Status {
			addPigeonhole(s, 8, 7)
			s.MaxConflicts = 150
			return s.Solve()
		}},
	}
	seconds := []life{
		sat3(1, 150, 4.26, Sat),
		sat3(4, 150, 4.26, Unsat),
		php(7, 6),
		{"incremental", func(s *Solver) Status {
			// The unroller's pattern: grow, add, solve under an
			// activation literal, retire it when refuted.
			rng := rand.New(rand.NewSource(3))
			var st Status
			randLit := func() Lit { return MkLit(rng.Intn(s.NumVars()), rng.Intn(2) == 0) }
			for round := 0; round < 6; round++ {
				for i := 0; i < 40; i++ {
					s.NewVar()
				}
				for i := 0; i < 165; i++ {
					s.AddClause(randLit(), randLit(), randLit())
				}
				guarded := []Lit{randLit(), randLit()}
				act := s.NewVar()
				s.AddClause(append(guarded, MkLit(act, true))...)
				if st = s.Solve(MkLit(act, false), randLit()); st == Unsat {
					s.AddClause(MkLit(act, true))
				}
			}
			return st
		}},
	}
	for _, second := range seconds {
		fresh := New()
		want := second.run(fresh)
		for _, first := range firsts {
			t.Run(first.name+"-then-"+second.name, func(t *testing.T) {
				s := New()
				first.run(s)
				s.Reset()
				sameState(t, s, New())
				checkStorage(t, s)
				if got := second.run(s); got != want {
					t.Fatalf("%v after Reset, %v on a new solver", got, want)
				}
				sameState(t, s, fresh)
				if want == Sat && modelHash(s, 0) != modelHash(fresh, 0) {
					t.Error("models differ")
				}
				checkStorage(t, s)
			})
		}
	}
}

// TestResetKeepsStorage: a second life of the same size allocates the
// one watch slab sized to the first (AllocsPerRun's warm-up call is
// that life), and from the third on a life allocates nothing.
func TestResetKeepsStorage(t *testing.T) {
	const nVars = 3000
	clauses := threeCNF(New(), rand.New(rand.NewSource(5)), nVars, 10000)
	s := New()
	load := func() {
		s.Reset()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c[0], c[1], c[2])
		}
	}
	load()
	if got := testing.AllocsPerRun(3, load); got != 0 {
		t.Errorf("a life after the second made %v allocations, want 0", got)
	}
	if len(s.slab0) < s.carved {
		t.Errorf("the retained slab holds %d watchers, this life cut %d", len(s.slab0), s.carved)
	}
}
