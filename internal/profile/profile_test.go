package profile

import (
	"testing"

	"repro/internal/isa"
)

func mustAsm(t testing.TB, a *isa.Asm) *isa.Image {
	t.Helper()
	img, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestLeadersAndStatic(t *testing.T) {
	a := isa.NewAsm()
	a.Li(isa.T0, 3) // 1 inst (small imm)
	a.Label("loop")
	a.Addi(isa.T0, isa.T0, -1)
	a.Bnez(isa.T0, "loop")
	a.Li(isa.A0, 0)
	a.Ecall()
	img := mustAsm(t, a)
	leaders := Leaders(img)
	// Leaders: entry (0), loop target (1), after-branch (3).
	want := []int{0, 1, 3}
	if len(leaders) != len(want) {
		t.Fatalf("leaders = %v", leaders)
	}
	for i := range want {
		if leaders[i] != want[i] {
			t.Fatalf("leaders = %v, want %v", leaders, want)
		}
	}
	p := Static(img)
	if len(p.Blocks) != 3 {
		t.Fatalf("blocks = %d", len(p.Blocks))
	}
	if p.Blocks[1].Insts != 2 {
		t.Errorf("loop block size = %d, want 2", p.Blocks[1].Insts)
	}
}

func TestCollectCounts(t *testing.T) {
	a := isa.NewAsm()
	a.Li(isa.T0, 5)
	a.Label("loop")
	a.Addi(isa.T0, isa.T0, -1)
	a.Bnez(isa.T0, "loop")
	a.Li(isa.A0, 0)
	a.Ecall()
	img := mustAsm(t, a)
	p := Collect(img, 1<<20, 1_000_000)
	if p == nil {
		t.Fatal("collect failed")
	}
	var loopCount uint64
	for _, b := range p.Blocks {
		if b.StartI == 1 {
			loopCount = b.Count
		}
	}
	if loopCount != 5 {
		t.Errorf("loop executed %d times, want 5", loopCount)
	}
	if p.TotalInsts == 0 || p.TotalCycles < p.TotalInsts {
		t.Errorf("totals wrong: %d insts %d cycles", p.TotalInsts, p.TotalCycles)
	}
}

func TestCollectFailure(t *testing.T) {
	a := isa.NewAsm()
	a.Ebreak()
	img := mustAsm(t, a)
	if Collect(img, 1<<20, 1000) != nil {
		t.Error("non-exiting program must yield nil profile")
	}
}

// TestCollectRejectsNonzeroExit: a run that exits with a nonzero code
// failed its self-check, so it profiles nothing.
func TestCollectRejectsNonzeroExit(t *testing.T) {
	a := isa.NewAsm()
	a.Li(isa.A0, 1)
	a.Ecall()
	if Collect(mustAsm(t, a), 1<<20, 1000) != nil {
		t.Error("a run that exits with code 1 must yield nil profile")
	}
}
