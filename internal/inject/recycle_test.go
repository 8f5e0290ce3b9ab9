package inject

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/alu"
	"repro/internal/cpu"
	"repro/internal/embench"
	"repro/internal/isa"
	"repro/internal/lift"
	"repro/internal/par"
)

// TestRecycledCPUEqualsNew is why every replay may take its arena from
// the pool: run image A (minver: FP registers, sticky flags, stack and
// data writes) to halt, release, run image B on a recycled CPU — its
// registers, FP state, counters and the campaign's memory digest equal
// those of a CPU that never ran anything else. Sequentially, where the
// same arena comes straight back, and from eight goroutines at once.
func TestRecycledCPUEqualsNew(t *testing.T) {
	bench, _ := embench.ByName("minver")
	imgA, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	imgB, err := lift.RandomSuite(alu.Build(), 6, 7).Image()
	if err != nil {
		t.Fatal(err)
	}
	run := func(c *cpu.CPU, img *isa.Image) error {
		c.Load(img)
		if halt := c.Run(50_000_000); halt != cpu.HaltExit || c.ExitCode != 0 {
			return fmt.Errorf("halt=%v exit=%d", halt, c.ExitCode)
		}
		return nil
	}
	fresh := cpu.New(memSize)
	if err := run(fresh, imgB); err != nil {
		t.Fatal(err)
	}
	want := digest(fresh)

	reused := 0
	check := func(count bool) error {
		c := cpu.Recycled(memSize)
		if err := run(c, imgA); err != nil {
			return err
		}
		if digest(c) == want {
			return fmt.Errorf("image A leaves the same state as image B: the test proves nothing")
		}
		arena := &c.Mem[0]
		c.Release()
		c = cpu.Recycled(memSize)
		defer c.Release()
		if count && &c.Mem[0] == arena {
			reused++
		}
		if err := run(c, imgB); err != nil {
			return err
		}
		if c.X != fresh.X || c.F != fresh.F || c.FFlags != fresh.FFlags || c.PC != fresh.PC ||
			c.Cycles != fresh.Cycles || c.Instret != fresh.Instret || digest(c) != want {
			return fmt.Errorf("recycled CPU diverged from a fresh one (digest %#x, want %#x)", digest(c), want)
		}
		return nil
	}
	for i := 0; i < 8; i++ {
		if err := check(true); err != nil {
			t.Fatal(err)
		}
	}
	if reused == 0 {
		t.Error("no arena was ever reused: the recycle path went untested")
	}
	if err := par.ForEach(context.Background(), 32, 8, func(context.Context, int) error { return check(false) }); err != nil {
		t.Fatal(err)
	}
}
