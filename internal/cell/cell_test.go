package cell

import "testing"

func TestNumInputs(t *testing.T) {
	want := map[Kind]int{
		TIE0: 0, TIE1: 0, BUF: 1, INV: 1, DFF: 1, CLKBUF: 1,
		AND2: 2, OR2: 2, NAND2: 2, NOR2: 2, XOR2: 2, XNOR2: 2, CLKGATE: 2,
		MUX2: 3, AOI21: 3, OAI21: 3,
	}
	for k, n := range want {
		if got := k.NumInputs(); got != n {
			t.Errorf("%v.NumInputs() = %d, want %d", k, got, n)
		}
	}
}

func TestClassification(t *testing.T) {
	if !DFF.IsSequential() || DFF.IsClock() {
		t.Error("DFF classification wrong")
	}
	if !CLKBUF.IsClock() || !CLKGATE.IsClock() || CLKBUF.IsSequential() {
		t.Error("clock cell classification wrong")
	}
	if AND2.IsClock() || AND2.IsSequential() {
		t.Error("AND2 classification wrong")
	}
}

func TestLibrariesPopulated(t *testing.T) {
	for _, lib := range []*Library{Lib28(), DemoLibrary()} {
		for k := Kind(0); int(k) < NumKinds; k++ {
			tm := lib.Timing[k]
			if k == TIE0 || k == TIE1 {
				continue
			}
			if lib.Name == "demo" && k.IsClock() {
				continue // idealized in the demo library
			}
			if tm.DelayMax < tm.DelayMin {
				t.Errorf("%s: %v DelayMax < DelayMin", lib.Name, k)
			}
			if tm.DelayMax <= 0 {
				t.Errorf("%s: %v has no delay data", lib.Name, k)
			}
		}
		dff := lib.Timing[DFF]
		if dff.Setup <= 0 || dff.Hold <= 0 {
			t.Errorf("%s: DFF missing setup/hold", lib.Name)
		}
	}
}

func TestKindString(t *testing.T) {
	if DFF.String() != "DFF" || XOR2.String() != "XOR2" {
		t.Error("Kind.String wrong")
	}
	if Kind(200).String() == "" {
		t.Error("out-of-range Kind.String empty")
	}
}
