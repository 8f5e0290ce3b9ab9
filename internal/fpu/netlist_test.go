package fpu

import (
	"math/rand"
	"testing"

	"repro/internal/module"
)

func TestNetlistMatchesGoldenArith(t *testing.T) {
	m := Build()
	d := module.NewDriver(m)
	rng := rand.New(rand.NewSource(21))
	arithOps := []Op{OpFadd, OpFsub, OpFmul}
	for i := 0; i < 3000; i++ {
		op := arithOps[rng.Intn(len(arithOps))]
		a, b := randOperand(rng), randOperand(rng)
		res, flags, ok := d.Exec(uint32(op), a, b)
		if !ok {
			t.Fatalf("FPU stalled on %v(%08x, %08x)", op, a, b)
		}
		wantRes, wantFlags := Eval(op, a, b)
		if res != wantRes || flags != wantFlags {
			t.Fatalf("%v(%08x, %08x) = %08x/%05b, want %08x/%05b",
				op, a, b, res, flags, wantRes, wantFlags)
		}
	}
}

func TestNetlistMatchesGoldenNonArith(t *testing.T) {
	m := Build()
	d := module.NewDriver(m)
	rng := rand.New(rand.NewSource(22))
	ops := []Op{OpFmin, OpFmax, OpFle, OpFlt, OpFeq, OpFsgnj, OpFsgnjn, OpFsgnjx, OpFclass}
	for i := 0; i < 1500; i++ {
		op := ops[rng.Intn(len(ops))]
		a, b := randOperand(rng), randOperand(rng)
		res, flags, ok := d.Exec(uint32(op), a, b)
		if !ok {
			t.Fatalf("FPU stalled on %v(%08x, %08x)", op, a, b)
		}
		wantRes, wantFlags := Eval(op, a, b)
		if res != wantRes || flags != wantFlags {
			t.Fatalf("%v(%08x, %08x) = %08x/%05b, want %08x/%05b",
				op, a, b, res, flags, wantRes, wantFlags)
		}
	}
}

func TestNetlistSpecialPairs(t *testing.T) {
	m := Build()
	d := module.NewDriver(m)
	// Every pair of interesting operands through add/sub/mul — the full
	// special-case matrix at gate level.
	for _, op := range []Op{OpFadd, OpFsub, OpFmul, OpFmin, OpFle} {
		for _, a := range interestingBits {
			for _, b := range interestingBits {
				res, flags, ok := d.Exec(uint32(op), a, b)
				if !ok {
					t.Fatalf("stall on %v(%08x, %08x)", op, a, b)
				}
				wantRes, wantFlags := Eval(op, a, b)
				if res != wantRes || flags != wantFlags {
					t.Fatalf("%v(%08x, %08x) = %08x/%05b, want %08x/%05b",
						op, a, b, res, flags, wantRes, wantFlags)
				}
			}
		}
	}
}

func TestNetlistPipelined(t *testing.T) {
	m := Build()
	d := module.NewDriver(m)
	rng := rand.New(rand.NewSource(23))
	n := 60
	ops := make([]uint32, n)
	as := make([]uint32, n)
	bs := make([]uint32, n)
	for i := range ops {
		ops[i] = uint32(rng.Intn(NumOps))
		as[i] = randOperand(rng)
		bs[i] = randOperand(rng)
	}
	results, flags, ok := d.ExecPipelined(ops, as, bs)
	if !ok {
		t.Fatal("pipeline did not drain")
	}
	for i := range ops {
		wantRes, wantFlags := Eval(Op(ops[i]), as[i], bs[i])
		if results[i] != wantRes || flags[i] != wantFlags {
			t.Fatalf("op %d %v: got %08x/%05b want %08x/%05b",
				i, Op(ops[i]), results[i], flags[i], wantRes, wantFlags)
		}
	}
}

func TestStatusOutputs(t *testing.T) {
	m := Build()
	d := module.NewDriver(m)
	s := d.Eng
	out := func(port string) uint64 {
		s.Settle()
		return s.Output(port, 0)
	}
	if out("busy") != 0 {
		t.Error("busy at reset")
	}
	s.SetInput(module.PortInValid, 1)
	s.SetInput(module.PortOp, uint64(OpFadd))
	s.SetInput(module.PortA, 0x3f800000)
	s.SetInput(module.PortB, 0x3f800000)
	s.Step()
	s.SetInput(module.PortInValid, 0)
	s.Step()
	if out(module.PortOutValid) != 1 {
		t.Error("out_valid not raised at latency 2")
	}
	if out("busy") != 1 || out("flags_valid") != 1 {
		t.Error("status strobes not raised with out_valid")
	}
	if out(module.PortResult) != 0x40000000 {
		t.Errorf("1+1 = %08x", out(module.PortResult))
	}
	s.Step()
	if out(module.PortOutValid) != 0 {
		t.Error("out_valid stuck")
	}
	s.Step()
	s.Step()
	if out("busy") != 0 || out("flags_valid") != 0 {
		t.Error("status bits stuck after drain")
	}
}

func TestModuleMetadata(t *testing.T) {
	m := Build()
	if m.Latency != 2 || m.OpWidth != OpWidth || m.FlagWidth != FlagWidth {
		t.Errorf("metadata wrong")
	}
	if f := m.FrequencyMHz(); f != 250 {
		t.Errorf("frequency = %v, want 250", f)
	}
	if !m.StickyFlags {
		t.Error("FPU flags should be architecturally sticky")
	}
	st := m.Netlist.Stats()
	t.Logf("FPU netlist: %+v", st)
	if st.Comb < 5000 {
		t.Errorf("FPU datapath suspiciously small: %d comb cells", st.Comb)
	}
}
