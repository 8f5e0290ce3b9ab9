package alu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/module"
)

func TestEvalGolden(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint32
		want uint32
	}{
		{OpAdd, 2, 3, 5},
		{OpAdd, 0xffffffff, 1, 0},
		{OpSub, 5, 7, 0xfffffffe},
		{OpAnd, 0xf0f0, 0xff00, 0xf000},
		{OpOr, 0xf0f0, 0x0f0f, 0xffff},
		{OpXor, 0xff, 0x0f, 0xf0},
		{OpSll, 1, 31, 0x80000000},
		{OpSll, 1, 32, 1}, // shift amount masked to 5 bits
		{OpSrl, 0x80000000, 31, 1},
		{OpSra, 0x80000000, 31, 0xffffffff},
		{OpSlt, 0xffffffff, 0, 1}, // -1 < 0
		{OpSlt, 0, 0xffffffff, 0},
		{OpSltu, 0xffffffff, 0, 0},
		{OpSltu, 0, 1, 1},
	}
	for _, c := range cases {
		if got := Eval(c.op, c.a, c.b); got != c.want {
			t.Errorf("%v(%#x, %#x) = %#x, want %#x", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestFlags(t *testing.T) {
	if Flags(5, 5) != 1 {
		t.Error("eq flag")
	}
	if Flags(0xffffffff, 0)&2 == 0 {
		t.Error("lt flag for -1 < 0")
	}
	if Flags(0, 1) != 2|4 {
		t.Error("lt+ltu for 0 < 1")
	}
}

func TestNetlistMatchesGoldenExec(t *testing.T) {
	m := Build()
	d := module.NewDriver(m)
	rng := rand.New(rand.NewSource(1))
	interesting := []uint32{0, 1, 2, 31, 32, 0x7fffffff, 0x80000000, 0xffffffff}
	rand32 := func() uint32 {
		if rng.Intn(3) == 0 {
			return interesting[rng.Intn(len(interesting))]
		}
		return rng.Uint32()
	}
	for i := 0; i < 400; i++ {
		op := Op(rng.Intn(NumOps))
		a, b := rand32(), rand32()
		res, flags, ok := d.Exec(uint32(op), a, b)
		if !ok {
			t.Fatalf("ALU stalled on %v(%#x, %#x)", op, a, b)
		}
		if want := Eval(op, a, b); res != want {
			t.Fatalf("%v(%#x, %#x) = %#x, want %#x", op, a, b, res, want)
		}
		if want := Flags(a, b); flags != want {
			t.Fatalf("flags(%#x, %#x) = %#x, want %#x", a, b, flags, want)
		}
	}
}

func TestNetlistPipelined(t *testing.T) {
	m := Build()
	d := module.NewDriver(m)
	rng := rand.New(rand.NewSource(2))
	n := 100
	ops := make([]uint32, n)
	as := make([]uint32, n)
	bs := make([]uint32, n)
	for i := range ops {
		ops[i] = uint32(rng.Intn(NumOps))
		as[i] = rng.Uint32()
		bs[i] = rng.Uint32()
	}
	results, flags, ok := d.ExecPipelined(ops, as, bs)
	if !ok {
		t.Fatal("pipeline did not drain")
	}
	for i := range ops {
		if want := Eval(Op(ops[i]), as[i], bs[i]); results[i] != want {
			t.Fatalf("op %d: got %#x want %#x", i, results[i], want)
		}
		if want := Flags(as[i], bs[i]); flags[i] != want {
			t.Fatalf("op %d flags: got %#x want %#x", i, flags[i], want)
		}
	}
}

func TestNetlistQuickProperty(t *testing.T) {
	m := Build()
	d := module.NewDriver(m)
	f := func(opRaw uint8, a, b uint32) bool {
		op := Op(opRaw) % NumOps
		res, _, ok := d.Exec(uint32(op), a, b)
		return ok && res == Eval(op, a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestModuleMetadata(t *testing.T) {
	m := Build()
	if m.Latency != 2 || m.OpWidth != OpWidth || m.FlagWidth != FlagWidth {
		t.Errorf("metadata wrong: %+v", m)
	}
	if f := m.FrequencyMHz(); f < 166 || f > 168 {
		t.Errorf("frequency = %v MHz, want ~167", f)
	}
	if !m.OpValid(uint32(OpSltu)) || m.OpValid(NumOps) {
		t.Error("OpValid wrong")
	}
	st := m.Netlist.Stats()
	t.Logf("ALU netlist: %+v", st)
	if st.DFFs < 100 {
		t.Errorf("suspiciously few DFFs: %d", st.DFFs)
	}
	if st.Comb < 1000 {
		t.Errorf("suspiciously small datapath: %d comb cells", st.Comb)
	}
}

func TestOpStringAndValid(t *testing.T) {
	if OpAdd.String() != "ADD" || OpSltu.String() != "SLTU" {
		t.Error("op names wrong")
	}
	if Op(99).Valid() {
		t.Error("Op(99) should be invalid")
	}
}
