package sat

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if s.Solve() != Sat || !s.Value(a) {
		t.Fatal("x must be SAT with x=true")
	}
}

func TestContradiction(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(a, true))
	if s.Solve() != Unsat {
		t.Fatal("x & !x must be UNSAT")
	}
}

func TestSimpleImplications(t *testing.T) {
	// (a -> b) & (b -> c) & a & !c is UNSAT.
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(b, true), MkLit(c, false))
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(c, true))
	if s.Solve() != Unsat {
		t.Fatal("implication chain must be UNSAT")
	}
}

func TestXorChainSat(t *testing.T) {
	// x0 ^ x1 ^ ... ^ x9 = 1 encoded via intermediate variables.
	s := New()
	xs := make([]int, 10)
	for i := range xs {
		xs[i] = s.NewVar()
	}
	acc := xs[0]
	for i := 1; i < len(xs); i++ {
		out := s.NewVar()
		addXor(s, acc, xs[i], out)
		acc = out
	}
	s.AddClause(MkLit(acc, false))
	if s.Solve() != Sat {
		t.Fatal("xor chain must be SAT")
	}
	parity := false
	for _, x := range xs {
		parity = parity != s.Value(x)
	}
	if !parity {
		t.Fatal("model does not satisfy the xor constraint")
	}
}

// addXor encodes out = a ^ b.
func addXor(s *Solver, a, b, out int) {
	s.AddClause(MkLit(a, true), MkLit(b, true), MkLit(out, true))
	s.AddClause(MkLit(a, false), MkLit(b, false), MkLit(out, true))
	s.AddClause(MkLit(a, true), MkLit(b, false), MkLit(out, false))
	s.AddClause(MkLit(a, false), MkLit(b, true), MkLit(out, false))
}

func TestPigeonholeUnsat(t *testing.T) {
	// 5 pigeons in 4 holes: classic hard UNSAT instance for resolution.
	const pigeons, holes = 5, 4
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
	if s.Solve() != Unsat {
		t.Fatal("pigeonhole must be UNSAT")
	}
}

func TestRandom3SATModelsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 40; iter++ {
		nVars := 30 + rng.Intn(30)
		nClauses := int(float64(nVars) * (2.0 + rng.Float64()*2.5))
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		type cl [3]Lit
		var clauses []cl
		for i := 0; i < nClauses; i++ {
			var c cl
			for j := range c {
				c[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			clauses = append(clauses, c)
			s.AddClause(c[0], c[1], c[2])
		}
		if s.Solve() != Sat {
			continue // UNSAT instances are fine; we check model validity
		}
		for _, c := range clauses {
			ok := false
			for _, l := range c {
				if s.Value(l.Var()) != l.Neg() {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("model violates clause %v", c)
			}
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, false)) // a -> b
	// Assume a: b must be true.
	if s.Solve(MkLit(a, false)) != Sat {
		t.Fatal("SAT under assumption a")
	}
	if !s.Value(a) || !s.Value(b) {
		t.Fatal("model must have a, b true")
	}
	// Assume a & !b: contradiction.
	if s.Solve(MkLit(a, false), MkLit(b, true)) != Unsat {
		t.Fatal("a & !b must be UNSAT")
	}
	// Solver remains usable: assume !a.
	if s.Solve(MkLit(a, true)) != Sat {
		t.Fatal("SAT under assumption !a")
	}
	if s.Value(a) {
		t.Fatal("a must be false")
	}
}

func TestIncrementalAddAfterSolve(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	if s.Solve() != Sat {
		t.Fatal("initial SAT")
	}
	s.AddClause(MkLit(a, true))
	s.AddClause(MkLit(b, true))
	if s.Solve() != Unsat {
		t.Fatal("after strengthening must be UNSAT")
	}
}

func TestConflictBudget(t *testing.T) {
	// A pigeonhole instance large enough to exceed a tiny budget.
	const pigeons, holes = 8, 7
	s := New()
	s.MaxConflicts = 10
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
	if got := s.Solve(); got != Unknown {
		t.Fatalf("budgeted solve = %v, want Unknown", got)
	}
}

func TestGraphColoring(t *testing.T) {
	// A 5-cycle is 3-colorable but not 2-colorable.
	color := func(k int) Status {
		s := New()
		n := 5
		v := func(node, c int) int { return node*k + c }
		for i := 0; i < n*k; i++ {
			s.NewVar()
		}
		for node := 0; node < n; node++ {
			lits := make([]Lit, k)
			for c := 0; c < k; c++ {
				lits[c] = MkLit(v(node, c), false)
			}
			s.AddClause(lits...)
		}
		for node := 0; node < n; node++ {
			next := (node + 1) % n
			for c := 0; c < k; c++ {
				s.AddClause(MkLit(v(node, c), true), MkLit(v(next, c), true))
			}
		}
		return s.Solve()
	}
	if color(2) != Unsat {
		t.Error("C5 must not be 2-colorable")
	}
	if color(3) != Sat {
		t.Error("C5 must be 3-colorable")
	}
}

func TestLitHelpers(t *testing.T) {
	l := MkLit(7, true)
	if l.Var() != 7 || !l.Neg() {
		t.Error("MkLit fields wrong")
	}
	if l.Not().Neg() || l.Not().Var() != 7 {
		t.Error("Not wrong")
	}
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Error("Status strings wrong")
	}
}

func TestDuplicateAndTautology(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	// Tautology is dropped silently.
	s.AddClause(MkLit(a, false), MkLit(a, true))
	// Duplicate literals are collapsed.
	s.AddClause(MkLit(b, false), MkLit(b, false))
	if s.Solve() != Sat || !s.Value(b) {
		t.Fatal("b must be forced true")
	}
}

func TestReduceDBKeepsSoundness(t *testing.T) {
	// A larger pigeonhole instance forces many conflicts; with an
	// artificially low reduce threshold the solver must still prove
	// UNSAT.
	s := New()
	addPigeonhole(s, 7, 6)
	if s.Solve() != Unsat {
		t.Fatal("php(7,6) must be UNSAT")
	}
	if s.Conflicts == 0 {
		t.Error("expected a nontrivial proof")
	}
}

func TestQuickSelect(t *testing.T) {
	a := []float64{5, 1, 4, 2, 3}
	if got := quickSelect(append([]float64(nil), a...), 2); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quickSelect(append([]float64(nil), a...), 0); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := quickSelect(append([]float64(nil), a...), 4); got != 5 {
		t.Errorf("max = %v", got)
	}
	if quickSelect(nil, 0) != 0 {
		t.Error("empty input")
	}
}

// TestSecondBudgetedSolveReturns is the regression for a livelock:
// search used to compare the solver's cumulative conflict count with
// MaxConflicts while Solve compared the per-call count, so once a
// solver had spent a call's whole budget the next call made no move and
// never gave up either. MaxConflicts budgets each call by itself.
func TestSecondBudgetedSolveReturns(t *testing.T) {
	s := pigeonhole(10, 9)
	s.MaxConflicts = 300
	if got := s.Solve(); got != Unknown {
		t.Fatalf("first budgeted solve = %v, want Unknown", got)
	}
	done := make(chan Status, 1)
	spent := s.Conflicts
	go func() { done <- s.Solve() }()
	select {
	case got := <-done:
		if got != Unknown {
			t.Fatalf("second budgeted solve = %v, want Unknown", got)
		}
		if n := s.Conflicts - spent; n < 300 || n > 400 {
			t.Errorf("second call spent %d conflicts, want its own budget of 300 (and a short overshoot)", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second budgeted Solve did not return: it spins without searching")
	}
}

// TestAddClauseAllocsBounded: storing a clause allocates nothing of its
// own — the literals go into the arena, the watchers into lists cut
// from a slab, and both grow by doubling — so 10,000 ternary clauses
// cost O(log clauses) allocations (16 here). The pointer-per-clause
// solver made 56,252: a []Lit and a *clause per clause plus a growslice
// chain per watch list.
func TestAddClauseAllocsBounded(t *testing.T) {
	const nVars, nClauses, runs = 3000, 10000, 5
	rng := rand.New(rand.NewSource(1))
	clauses := make([][3]Lit, nClauses)
	for i := range clauses {
		for j := range clauses[i] {
			clauses[i][j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
		}
	}
	// AllocsPerRun calls the function once more than it counts.
	fresh := make([]*Solver, runs+1)
	for i := range fresh {
		fresh[i] = New()
		for v := 0; v < nVars; v++ {
			fresh[i].NewVar()
		}
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		s := fresh[next]
		next++
		for _, c := range clauses {
			s.AddClause(c[0], c[1], c[2])
		}
	})
	if bound := 2 * math.Log2(nClauses); got > bound {
		t.Errorf("AddClause x %d made %v allocations, want at most 2*log2(clauses) = %.0f", nClauses, got, bound)
	}
}
