package embench

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/fpu"
	"repro/internal/module"
)

const memSize = 1 << 20

func TestAllBenchmarksSelfCheck(t *testing.T) {
	for _, b := range All {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			img, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			c := cpu.New(memSize)
			c.Load(img)
			halt := c.Run(100_000_000)
			if halt != cpu.HaltExit {
				t.Fatalf("halt = %v (%s) pc=%#x", halt, c.FaultMsg, c.PC)
			}
			if c.ExitCode != 0 {
				t.Fatalf("self-check failed: exit=%d", c.ExitCode)
			}
			t.Logf("%s: %d instructions, %d cycles", b.Name, c.Instret, c.Cycles)
			if c.Instret < 500 {
				t.Errorf("%s is suspiciously short (%d instructions)", b.Name, c.Instret)
			}
		})
	}
}

func TestFPUBenchmarksUseFPU(t *testing.T) {
	for _, b := range All {
		img, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		rec := &cpu.Recording{Inner: module.GoldenFunc(fpu.Golden)}
		c := cpu.New(memSize)
		c.FPU = rec
		c.Load(img)
		c.Run(100_000_000)
		if b.UsesFPU && len(rec.Trace) == 0 {
			t.Errorf("%s is marked UsesFPU but issued no FPU ops", b.Name)
		}
		if !b.UsesFPU && len(rec.Trace) > 0 {
			t.Errorf("%s is not marked UsesFPU but issued %d FPU ops", b.Name, len(rec.Trace))
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("crc32"); !ok {
		t.Error("crc32 missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("phantom benchmark")
	}
}

func TestDeterministicImages(t *testing.T) {
	for _, b := range All {
		i1, err1 := b.Build()
		i2, err2 := b.Build()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s build: %v / %v", b.Name, err1, err2)
		}
		if len(i1.Words) != len(i2.Words) {
			t.Fatalf("%s nondeterministic size", b.Name)
		}
		for k := range i1.Words {
			if i1.Words[k] != i2.Words[k] {
				t.Fatalf("%s nondeterministic at word %d", b.Name, k)
			}
		}
	}
}
