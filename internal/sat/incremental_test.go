package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSolveClearsStaleTrail is the regression for the incremental-use
// bug this PR fixes: a second Solve call used to inherit the first
// call's decision trail, so its assumptions were indexed against stale
// decision levels and could be skipped entirely.
func TestSolveClearsStaleTrail(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false)) // a | b
	if s.Solve() != Sat {
		t.Fatal("a|b must be SAT")
	}
	// Under !a & !b the clause is falsified; the old solver returned Sat
	// here because the leftover trail masked the assumptions.
	if s.Solve(MkLit(a, true), MkLit(b, true)) != Unsat {
		t.Fatal("a|b under assumptions !a,!b must be UNSAT")
	}
	// And the solver must remain usable with consistent assumptions.
	if s.Solve(MkLit(a, true)) != Sat || s.Value(a) || !s.Value(b) {
		t.Fatal("a|b under !a must be SAT with b=true")
	}
}

// threeCNF builds a random 3-CNF over nVars variables in s and returns
// the clause list (also added to s).
func threeCNF(s *Solver, rng *rand.Rand, nVars, nClauses int) [][3]Lit {
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	out := make([][3]Lit, 0, nClauses)
	for i := 0; i < nClauses; i++ {
		var c [3]Lit
		for j := range c {
			c[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
		}
		out = append(out, c)
		s.AddClause(c[0], c[1], c[2])
	}
	return out
}

// TestAssumptionsEqualUnits is the defining property of assumption-based
// solving: Solve(a...) on formula F must agree with Solve() on
// F ∪ {unit(a) for a in assumptions}, for random 3-CNF and random
// assumption sets.
func TestAssumptionsEqualUnits(t *testing.T) {
	check := func(seed int64, nAssume uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 15 + rng.Intn(25)
		nClauses := int(float64(nVars) * (2.0 + rng.Float64()*2.5))

		assumed := New()
		clauses := threeCNF(assumed, rng, nVars, nClauses)
		var assumptions []Lit
		for i := 0; i < int(nAssume)%6; i++ {
			assumptions = append(assumptions, MkLit(rng.Intn(nVars), rng.Intn(2) == 0))
		}

		united := New()
		for i := 0; i < nVars; i++ {
			united.NewVar()
		}
		for _, c := range clauses {
			united.AddClause(c[0], c[1], c[2])
		}
		for _, a := range assumptions {
			united.AddClause(a)
		}

		got, want := assumed.Solve(assumptions...), united.Solve()
		if got != want {
			t.Logf("seed %d assume %v: Solve(a...)=%v, Solve() on F∪units=%v", seed, assumptions, got, want)
			return false
		}
		if got != Sat {
			return true
		}
		// The assumed model must honor every assumption and clause.
		for _, a := range assumptions {
			if assumed.Value(a.Var()) == a.Neg() {
				t.Logf("seed %d: model violates assumption %v", seed, a)
				return false
			}
		}
		for _, c := range clauses {
			ok := false
			for _, l := range c {
				if assumed.Value(l.Var()) != l.Neg() {
					ok = true
				}
			}
			if !ok {
				t.Logf("seed %d: model violates clause %v", seed, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedSolveWithVarGrowth drives one solver through rounds of
// variable growth, clause additions, and changing assumptions — the
// exact access pattern of the incremental BMC unroller — and checks
// every verdict against a from-scratch solver on the same formula with
// the assumptions added as units.
func TestRepeatedSolveWithVarGrowth(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inc := New()
		var all [][3]Lit
		nVars := 0
		for round := 0; round < 6; round++ {
			grow := 5 + rng.Intn(10)
			for i := 0; i < grow; i++ {
				inc.NewVar()
			}
			nVars += grow
			nClauses := 2 + rng.Intn(3*grow)
			for i := 0; i < nClauses; i++ {
				var c [3]Lit
				for j := range c {
					c[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
				}
				all = append(all, c)
				inc.AddClause(c[0], c[1], c[2])
			}
			var assumptions []Lit
			for i := 0; i < rng.Intn(4); i++ {
				assumptions = append(assumptions, MkLit(rng.Intn(nVars), rng.Intn(2) == 0))
			}

			scratch := New()
			for i := 0; i < nVars; i++ {
				scratch.NewVar()
			}
			for _, c := range all {
				scratch.AddClause(c[0], c[1], c[2])
			}
			for _, a := range assumptions {
				scratch.AddClause(a)
			}
			got, want := inc.Solve(assumptions...), scratch.Solve()
			if got != want {
				t.Fatalf("seed %d round %d: incremental=%v scratch=%v (assume %v)",
					seed, round, got, want, assumptions)
			}
			if want == Unsat && len(assumptions) == 0 {
				break // formula itself is dead; nothing more to vary
			}
		}
	}
}

// TestUnitLearntSurvivesRestartUnderAssumptions pins the unit-learnt
// fix: a root-level fact learnt while assumptions are active must land
// at decision level 0, not at an assumption level where the next
// restart would silently erase it.
func TestUnitLearntSurvivesRestartUnderAssumptions(t *testing.T) {
	// Build an instance whose refutation forces unit learnts: a chain
	// x0 -> x1 -> ... -> xn plus !xn, queried under an unrelated
	// assumption. Repeated solves must stay consistent.
	s := New()
	const n = 12
	xs := make([]int, n)
	for i := range xs {
		xs[i] = s.NewVar()
	}
	free := s.NewVar()
	for i := 0; i+1 < n; i++ {
		s.AddClause(MkLit(xs[i], true), MkLit(xs[i+1], false))
	}
	s.AddClause(MkLit(xs[n-1], true))
	if s.Solve(MkLit(free, false), MkLit(xs[0], false)) != Unsat {
		t.Fatal("x0 with chain to !xn must be UNSAT under the assumption")
	}
	if s.Solve(MkLit(free, false)) != Sat {
		t.Fatal("dropping the contradictory assumption must be SAT")
	}
	if s.Value(xs[0]) {
		t.Fatal("x0 must be false in every model")
	}
	if s.Solve(MkLit(xs[0], false)) != Unsat {
		t.Fatal("assuming x0 must stay UNSAT on the reused solver")
	}
}

// TestStatsSnapshot checks the Stats accessor and its aggregation.
func TestStatsSnapshot(t *testing.T) {
	s := New()
	const pigeons, holes = 6, 5
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
	if s.Solve() != Unsat {
		t.Fatal("php(6,5) must be UNSAT")
	}
	st := s.Stats()
	if st.Conflicts == 0 || st.Propagations == 0 || st.Decisions == 0 {
		t.Errorf("expected nontrivial search counters, got %+v", st)
	}
	if st.Learnts == 0 {
		t.Error("refuting php(6,5) must record learnt clauses")
	}
	if st.Conflicts != s.Conflicts || st.Restarts != s.Restarts {
		t.Error("Stats snapshot disagrees with exported counters")
	}
	sum := st.Add(st)
	if sum.Conflicts != 2*st.Conflicts || sum.Learnts != 2*st.Learnts || sum.Restarts != 2*st.Restarts {
		t.Errorf("Add is not field-wise: %+v", sum)
	}
	if s.NumClauses() == 0 {
		t.Error("problem clauses must be counted")
	}
}
