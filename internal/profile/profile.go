// Package profile implements the basic-block profiling that drives
// Profile-Guided Test Integration (§3.4.2): it derives the static basic
// blocks of an assembled image, counts their executions during a
// representative run, and reports the totals the site-selection
// heuristic needs.
package profile

import (
	"sort"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// Block is one static basic block.
type Block struct {
	Index  int    // block number, in address order
	Start  uint32 // address of the leader instruction
	StartI int    // instruction index of the leader in the image
	Insts  int    // static size in instructions
	Count  uint64 // dynamic executions observed
}

// Profile is the result of a profiling run.
type Profile struct {
	Blocks []Block
	// TotalInsts is the number of dynamically executed instructions.
	TotalInsts uint64
	// TotalCycles is the cycle count of the profiling run.
	TotalCycles uint64
}

// Leaders computes the basic-block leader instruction indices of an
// image: the entry point, every branch/jump target, and every
// instruction following a control transfer.
func Leaders(img *isa.Image) []int {
	lead := map[int]bool{0: true}
	for i, inst := range img.Insts {
		switch inst.Op {
		case isa.JAL, isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
			t := i + int(inst.Imm)/4
			if t >= 0 && t < len(img.Insts) {
				lead[t] = true
			}
			lead[i+1] = true
		case isa.JALR, isa.ECALL, isa.EBREAK:
			lead[i+1] = true
		}
	}
	var out []int
	for i := range lead {
		if i < len(img.Insts) {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// Static derives the blocks of an image with zero counts.
func Static(img *isa.Image) *Profile {
	leaders := Leaders(img)
	p := &Profile{}
	for i, l := range leaders {
		end := len(img.Insts)
		if i+1 < len(leaders) {
			end = leaders[i+1]
		}
		p.Blocks = append(p.Blocks, Block{
			Index:  i,
			Start:  img.Base + 4*uint32(l),
			StartI: l,
			Insts:  end - l,
		})
	}
	return p
}

// Collect runs the image on a fresh behavioural CPU with block counters
// attached (the counter instrumentation of §3.4.2) and returns the
// filled profile. The run must exit with code 0; a nil profile is
// returned otherwise.
func Collect(img *isa.Image, memSize int, maxCycles uint64) *Profile {
	p := Static(img)
	byAddr := make(map[uint32]*Block, len(p.Blocks))
	for i := range p.Blocks {
		byAddr[p.Blocks[i].Start] = &p.Blocks[i]
	}
	c := cpu.New(memSize)
	c.InstHook = func(pc uint32, inst isa.Inst) {
		if b, ok := byAddr[pc]; ok {
			b.Count++
		}
	}
	c.Load(img)
	if c.Run(maxCycles) != cpu.HaltExit || c.ExitCode != 0 {
		return nil
	}
	p.TotalInsts = c.Instret
	p.TotalCycles = c.Cycles
	return p
}
