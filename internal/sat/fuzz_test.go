package sat

import "testing"

// checkStorage walks the solver's flat storage and fails on anything a
// stale or misplaced cref would leave behind: the arena must be tiled
// exactly by well-formed clauses, every learnt header must point back at
// its slot, every clause must sit on the watch lists of its first two
// literals and on no other, every reason must be a live clause implying
// its variable through lits[0], and the heap's position table must agree
// with the heap.
func checkStorage(t testing.TB, s *Solver) {
	t.Helper()
	live := make([]bool, len(s.arena))   // by cref: a clause starts here
	watched := make([]int, len(s.arena)) // by cref: watch lists it is on
	problem, clauses := 0, 0
	for c := cref(0); int(c) < len(s.arena); c += 2 + cref(s.arena[c]) {
		n, slot := int(s.arena[c]), int(s.arena[c+1])
		if n < 2 || int(c)+2+n > len(s.arena) {
			t.Fatalf("arena[%d]: clause of length %d in an arena of %d", c, n, len(s.arena))
		}
		switch {
		case slot == -1:
			problem++
		case slot < 0 || slot >= len(s.learnts) || s.learnts[slot] != c:
			t.Fatalf("arena[%d]: learnt slot %d does not point back (learnts has %d)", c, slot, len(s.learnts))
		}
		live[c] = true
		clauses++
	}
	if problem != s.NumClauses() || clauses != problem+len(s.learnts) || len(s.learntAct) != len(s.learnts) {
		t.Fatalf("arena holds %d clauses, %d of them problem clauses; solver counts %d problem, %d learnt, %d activities",
			clauses, problem, s.NumClauses(), len(s.learnts), len(s.learntAct))
	}
	isClause := func(c cref) bool { return c >= 0 && int(c) < len(live) && live[c] }
	for l, ws := range s.watches {
		for _, c := range ws {
			if !isClause(c) {
				t.Fatalf("literal %d watches cref %d, which is no clause", l, c)
			}
			if lits := s.lits(c); lits[0].Not() != Lit(l) && lits[1].Not() != Lit(l) {
				t.Fatalf("literal %d watches clause %d = %v, whose watched literals are the first two", l, c, lits)
			}
			watched[c]++
		}
	}
	for c := range live {
		if live[c] && watched[c] != 2 {
			t.Fatalf("clause %d = %v is on %d watch lists", c, s.lits(cref(c)), watched[c])
		}
	}
	for v, r := range s.reason {
		if r == noClause {
			continue
		}
		if !isClause(r) {
			t.Fatalf("reason of variable %d is cref %d, which is no clause", v, r)
		}
		if l := s.lits(r)[0]; l.Var() != v || s.value(l) != lTrue {
			t.Fatalf("reason of variable %d is clause %d = %v, which does not imply it", v, r, s.lits(r))
		}
	}
	h := s.order
	for v, i := range h.pos {
		if i >= 0 && (int(i) >= len(h.heap) || int(h.heap[i]) != v) {
			t.Fatalf("pos[%d] = %d, heap of %d disagrees", v, i, len(h.heap))
		}
		if i < 0 && s.assign[v] == lUndef {
			t.Fatalf("unassigned variable %d is not in the decision heap", v)
		}
	}
}

// TestReduceDBLeavesNoStaleCref solves a pigeonhole instance and (not
// under -short) the SAT instance of trajectory_test.go with the
// reduceDB trigger lowered, in slices of a few hundred conflicts — a
// reduceDB round or two each — and checks the storage after every
// slice, so deletions and compaction are inspected throughout the run,
// with root-level reasons still on the trail.
func TestReduceDBLeavesNoStaleCref(t *testing.T) {
	type instance struct {
		name    string
		s       *Solver
		clauses [][3]Lit
		slice   int64
		want    Status
	}
	instances := []instance{{"php-8-7", pigeonhole(8, 7), nil, 300, Unsat}}
	if !testing.Short() {
		s, clauses := random3SAT(11, 250, 4.2)
		instances = append(instances, instance{"3sat-250-4.2-seed11", s, clauses, 2000, Sat})
	}
	for _, in := range instances {
		s := reduceInstance(in.s)
		s.MaxConflicts = in.slice
		st, slices := Unknown, 0
		for ; st == Unknown; slices++ {
			st = s.Solve()
			checkStorage(t, s)
		}
		if st != in.want || !satisfies(s, in.clauses) {
			t.Errorf("%s: %v after %d slices (model valid: %v), want %v", in.name, st, slices, satisfies(s, in.clauses), in.want)
		}
		checkColdPathsRan(t, s)
	}
}

// truthTable is the set of assignments of fuzzVars variables that
// satisfy every clause added so far, one bit per assignment: bit i of
// word w stands for the assignment whose bits spell w*64+i.
const fuzzVars = 18

type truthTable [1 << (fuzzVars - 6)]uint64

// litWord is word w of the set of assignments that make l true.
func litWord(l Lit, w int) uint64 {
	var x uint64
	if v := l.Var(); v < 6 {
		x = [6]uint64{0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
			0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000}[v]
	} else if w>>(v-6)&1 == 1 {
		x = ^uint64(0)
	}
	if l.Neg() {
		x = ^x
	}
	return x
}

// FuzzSolverVsBruteForce holds the solver to exhaustive enumeration on
// formulas of at most 18 variables: the fuzzer's bytes are an
// interleaving of NewVar, AddClause (one to four literals), Solve under
// up to three assumptions and Reset (the formula starts over, on the
// storage of the one before), on one solver whose reduceDB trigger is
// set low enough to fire. Every verdict must match the truth table of
// the clauses so far, every model must satisfy every clause and
// assumption, and the storage must be consistent after every Solve and
// every Reset.
func FuzzSolverVsBruteForce(f *testing.F) {
	f.Add([]byte{3, 0, 10, 0, 2, 18, 1, 4, 0, 8, 5})
	f.Add([]byte{17, 2, 26, 1, 7, 30, 26, 9, 12, 3, 18, 0, 5, 1, 16, 4, 22, 0})
	f.Add([]byte("\x05\x01\x12\x00\x02\x12\x01\x03\x12\x04\x06\x12\x05\x08\x12\x07\x09\x0a\x00\x18\x03\x04\x07"))
	f.Add([]byte{4, 1, 26, 0, 3, 5, 26, 1, 2, 4, 10, 7, 10, 6, 0, 42, 26, 2, 3, 6, 10, 1, 10, 0, 8, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		s := New()
		for n := 1 + next()%fuzzVars; n > 0; n-- {
			s.NewVar()
		}
		learntBase := next() % 8
		s.learntBase = learntBase
		randLit := func() Lit { return Lit(next() % (2 * s.NumVars())) }

		var models truthTable
		for w := range models {
			models[w] = ^uint64(0)
		}
		var clauses [][]Lit
		for len(data) > 0 {
			op := next()
			switch {
			case op%8 == 0:
				assumptions := make([]Lit, op>>3%4)
				for i := range assumptions {
					assumptions[i] = randLit()
				}
				want := Unsat
				for w := range models {
					x := models[w]
					for _, a := range assumptions {
						x &= litWord(a, w)
					}
					if x != 0 {
						want = Sat
						break
					}
				}
				got := s.Solve(assumptions...)
				if got != want {
					t.Fatalf("Solve(%v) = %v, enumeration says %v; clauses %v", assumptions, got, want, clauses)
				}
				checkStorage(t, s)
				if got != Sat {
					continue
				}
				for _, a := range assumptions {
					if s.Value(a.Var()) == a.Neg() {
						t.Fatalf("model violates assumption %v of %v; clauses %v", a, assumptions, clauses)
					}
				}
				for _, c := range clauses {
					ok := false
					for _, l := range c {
						ok = ok || s.Value(l.Var()) != l.Neg()
					}
					if !ok {
						t.Fatalf("model violates %v (assumptions %v, clauses %v)", c, assumptions, clauses)
					}
				}
			case op%8 == 1:
				if s.NumVars() < fuzzVars {
					s.NewVar()
				}
			case op%32 == 10:
				n := s.NumVars()
				s.Reset()
				checkStorage(t, s)
				for ; n > 0; n-- {
					s.NewVar()
				}
				s.learntBase = learntBase
				for w := range models {
					models[w] = ^uint64(0)
				}
				clauses = nil
			default:
				c := make([]Lit, 1+op>>3%4)
				for i := range c {
					c[i] = randLit()
				}
				clauses = append(clauses, c)
				s.AddClause(c...)
				for w := range models {
					var x uint64
					for _, l := range c {
						x |= litWord(l, w)
					}
					models[w] &= x
				}
			}
		}
	})
}
