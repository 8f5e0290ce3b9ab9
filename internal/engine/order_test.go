package engine_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/fpu"
	"repro/internal/netlist"
)

// topoProgram is a compiled program's instruction stream put back in
// netlist.Topo() order, with maximal same-kind runs over that order:
// the stream the interpreter walked before Compile sorted it by level.
type topoProgram struct {
	ops  []engine.Op
	runs []engine.Run
}

func topoOrder(p *engine.Program) *topoProgram {
	tp := &topoProgram{ops: make([]engine.Op, len(p.Topo))}
	for i, k := range p.Topo {
		tp.ops[i] = p.Ops[k]
	}
	for lo := 0; lo < len(tp.ops); {
		hi := lo + 1
		for hi < len(tp.ops) && tp.ops[hi].Kind == tp.ops[lo].Kind {
			hi++
		}
		tp.runs = append(tp.runs, engine.Run{Kind: tp.ops[lo].Kind, Lo: int32(lo), Hi: int32(hi)})
		lo = hi
	}
	return tp
}

// settlePacked is the 64-lane interpreter's loop over the topological
// order.
func (tp *topoProgram) settlePacked(vals []uint64) {
	ops := tp.ops
	for _, r := range tp.runs {
		run := ops[r.Lo:r.Hi]
		switch r.Kind {
		case cell.TIE0:
			for i := range run {
				vals[run[i].Out] = 0
			}
		case cell.TIE1:
			for i := range run {
				vals[run[i].Out] = ^uint64(0)
			}
		case cell.BUF, cell.CLKBUF:
			for i := range run {
				vals[run[i].Out] = vals[run[i].In[0]]
			}
		case cell.INV:
			for i := range run {
				vals[run[i].Out] = ^vals[run[i].In[0]]
			}
		case cell.AND2, cell.CLKGATE:
			for i := range run {
				vals[run[i].Out] = vals[run[i].In[0]] & vals[run[i].In[1]]
			}
		case cell.OR2:
			for i := range run {
				vals[run[i].Out] = vals[run[i].In[0]] | vals[run[i].In[1]]
			}
		case cell.NAND2:
			for i := range run {
				vals[run[i].Out] = ^(vals[run[i].In[0]] & vals[run[i].In[1]])
			}
		case cell.NOR2:
			for i := range run {
				vals[run[i].Out] = ^(vals[run[i].In[0]] | vals[run[i].In[1]])
			}
		case cell.XOR2:
			for i := range run {
				vals[run[i].Out] = vals[run[i].In[0]] ^ vals[run[i].In[1]]
			}
		case cell.XNOR2:
			for i := range run {
				vals[run[i].Out] = ^(vals[run[i].In[0]] ^ vals[run[i].In[1]])
			}
		case cell.MUX2:
			for i := range run {
				s := vals[run[i].In[2]]
				vals[run[i].Out] = (vals[run[i].In[0]] &^ s) | (vals[run[i].In[1]] & s)
			}
		case cell.AOI21:
			for i := range run {
				vals[run[i].Out] = ^((vals[run[i].In[0]] & vals[run[i].In[1]]) | vals[run[i].In[2]])
			}
		case cell.OAI21:
			for i := range run {
				vals[run[i].Out] = ^((vals[run[i].In[0]] | vals[run[i].In[1]]) & vals[run[i].In[2]])
			}
		default:
			panic("engine: cannot evaluate " + r.Kind.String())
		}
	}
}

// scheduledMatchesTopo settles randomNetlist(seed) from random state —
// every net, so flip-flop outputs, inputs and stale combinational values
// alike — on the packed interpreter and on the topological-order oracle,
// for a few rounds of fresh stimulus, and reports the first disagreement.
func scheduledMatchesTopo(t *testing.T, seed int64, rng *rand.Rand) bool {
	nl := randomNetlist(seed)
	p := engine.Compile(nl)
	tp := topoOrder(p)
	in, _ := nl.FindInput("x")
	words := make([]uint64, nl.NumNets)
	for n := range words {
		words[n] = rng.Uint64()
	}
	for round := 0; round < 4; round++ {
		for _, n := range in.Bits {
			words[n] = rng.Uint64()
		}
		wantW := append([]uint64(nil), words...)
		tp.settlePacked(wantW)
		e := engine.NewPacked(p)
		for n, w := range words {
			e.SetNet(netlist.NetID(n), w)
		}
		e.Settle()
		for n := range words {
			words[n] = 0
			for l := 0; l < engine.Lanes; l++ {
				if e.Lane(netlist.NetID(n), l) {
					words[n] |= 1 << uint(l)
				}
			}
			if words[n] != wantW[n] {
				t.Logf("seed %d round %d net %s: packed %#x, topological order %#x",
					seed, round, nl.NetName(netlist.NetID(n)), words[n], wantW[n])
				return false
			}
		}
	}
	return true
}

// TestScheduledSettleMatchesTopo: the level-major, kind-grouped order
// settles every net to exactly the word the netlist's own topological
// order gives, on random netlists from random state.
func TestScheduledSettleMatchesTopo(t *testing.T) {
	check := func(seed int64) bool {
		return scheduledMatchesTopo(t, seed, rand.New(rand.NewSource(seed^0x70b0)))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzScheduledSettle is TestScheduledSettleMatchesTopo with the
// fuzzer choosing the netlist and the state.
func FuzzScheduledSettle(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(42), int64(-7))
	f.Fuzz(func(t *testing.T, seed, state int64) {
		if !scheduledMatchesTopo(t, seed%1024, rand.New(rand.NewSource(state))) {
			t.Fatal("scheduled settle differs from the topological order")
		}
	})
}

// BenchmarkSettleOrder times one 64-lane settle of the FPU from random
// words in the netlist's topological order and in the compiled level
// order; ns/op divided by len(Ops) is the cost per gate.
func BenchmarkSettleOrder(b *testing.B) {
	p := engine.Compile(fpu.Build().Netlist)
	tp := topoOrder(p)
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, p.NumNets)
	for n := range vals {
		vals[n] = rng.Uint64()
	}
	b.Run("topo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tp.settlePacked(vals)
		}
	})
	b.Run("level", func(b *testing.B) {
		e := engine.NewPacked(p)
		for n, w := range vals {
			e.SetNet(netlist.NetID(n), w)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Settle()
		}
	})
}
