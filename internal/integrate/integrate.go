// Package integrate implements the paper's Test Integration phase
// (§3.4): profile-guided embedding (ProfileGuided) of a generated test
// suite into an application at a routinely-but-not-hotly executed basic
// block, with an instruction-count overhead estimate and a probability
// throttle that keeps the expected overhead under a user budget; plus
// the generation of a standalone software aging library (C source with
// inline assembly and language wrappers).
package integrate

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/isa"
	"repro/internal/lift"
	"repro/internal/profile"
)

// Site is a chosen integration point.
type Site struct {
	Block profile.Block
	// EstOverhead is the estimated instruction-count overhead fraction
	// before throttling: blockCount × suiteInsts / totalInsts.
	EstOverhead float64
	// Period is the invocation throttle: the tests run on every
	// Period-th visit of the block (1 = every visit).
	Period int
	// EffOverhead is the estimated overhead after throttling.
	EffOverhead float64
}

// Embedded is an application with a suite embedded at a profile-chosen
// site.
type Embedded struct {
	Image *isa.Image
	Site  Site
	// BaselineCycles is the cycle count of the profiling run: the
	// application's own, since the block counters cost no cycles.
	BaselineCycles uint64
}

// ProfileGuided is the paper's profile-guided integration (§3.4.2): it
// profiles the application, whose run must exit with code 0, chooses
// the suite's site under the overhead budget and embeds the suite there.
func ProfileGuided(app *isa.Image, suite *lift.Suite, budget float64, memSize int, maxCycles uint64) (*Embedded, error) {
	prof := profile.Collect(app, memSize, maxCycles)
	if prof == nil {
		return nil, fmt.Errorf("integrate: the profiling run did not exit with code 0")
	}
	insts, err := suite.InstCount()
	if err != nil {
		return nil, err
	}
	site, err := chooseSite(prof, insts, budget)
	if err != nil {
		return nil, err
	}
	img, err := embed(app, suite, site)
	if err != nil {
		return nil, err
	}
	return &Embedded{Image: img, Site: site, BaselineCycles: prof.TotalCycles}, nil
}

// minRoutineCount is the minimum dynamic execution count for a block to
// count as "routinely accessed".
const minRoutineCount = 4

// fixedBlobCycles estimates the per-visit fixed cost of the embedded
// blob (trampoline jumps, scratch saves, counter update, throttle check)
// in cycles. The full register/fflags save runs only on the visits that
// execute the tests.
const fixedBlobCycles = 34

// suiteCyclesPerInst converts the suite's instruction count into a cycle
// estimate for site selection (loads and taken branches dominate).
const suiteCyclesPerInst = 1.4

// chooseSite picks the integration point per §3.4.2: among routinely
// executed blocks, the most frequent one whose estimated overhead still
// fits the budget; if even the least frequent routine block exceeds the
// budget, that block is chosen with an invocation-probability throttle
// on the test burst.
func chooseSite(p *profile.Profile, suiteInsts int, budget float64) (Site, error) {
	if p.TotalInsts == 0 {
		return Site{}, fmt.Errorf("integrate: empty profile")
	}
	var candidates []profile.Block
	for _, b := range p.Blocks {
		if b.Count >= minRoutineCount {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		return Site{}, fmt.Errorf("integrate: no routinely executed block")
	}
	// eff estimates the cycle-overhead fraction of placing the blob at b
	// with the given throttle period.
	suiteCycles := float64(suiteInsts) * suiteCyclesPerInst
	eff := func(b profile.Block, period int) float64 {
		perVisit := fixedBlobCycles + suiteCycles/float64(period)
		return float64(b.Count) * perVisit / float64(p.TotalCycles)
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Count != candidates[j].Count {
			return candidates[i].Count < candidates[j].Count
		}
		return candidates[i].Start < candidates[j].Start
	})
	// Most frequent candidate that fits the budget unthrottled.
	best := -1
	for i, b := range candidates {
		if eff(b, 1) <= budget {
			best = i
		}
	}
	if best >= 0 {
		b := candidates[best]
		return Site{Block: b, EstOverhead: eff(b, 1), Period: 1, EffOverhead: eff(b, 1)}, nil
	}
	// Throttle the least frequent routine block: solve for the period
	// that brings the suite portion within the remaining budget, rounded
	// up to a power of two so the runtime check is a single AND.
	b := candidates[0]
	est := eff(b, 1)
	fixed := float64(b.Count) * fixedBlobCycles / float64(p.TotalCycles)
	suitePart := float64(b.Count) * suiteCycles / float64(p.TotalCycles)
	remaining := budget - fixed
	// maxPeriod keeps the throttle mask within an ANDI immediate.
	const maxPeriod = 2048
	period := maxPeriod // fixed cost alone busts the budget: minimize tests
	if remaining > 0 {
		period = nextPow2(int(math.Ceil(suitePart / remaining)))
		if period > maxPeriod {
			period = maxPeriod
		}
	}
	return Site{Block: b, EstOverhead: est, Period: period, EffOverhead: eff(b, period)}, nil
}

func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// savedIntRegs is the integer register set the embedded blob preserves.
func savedIntRegs() []isa.Reg { return lift.ClobberedIntRegs() }

// fpSaveCount is how many FP registers the blob preserves when the suite
// contains FPU cases (the emission templates use f1..f15).
const fpSaveCount = 15

// embed splices the suite into the application at the chosen site,
// preserving every register (and fflags) the tests touch, bumping a
// visit counter, and honoring the throttle period. All branch and jump
// offsets crossing the insertion point are fixed up — the assembly-level
// equivalent of the paper's LLVM instrumentation pass.
func embed(app *isa.Image, suite *lift.Suite, site Site) (*isa.Image, error) {
	// The throttle counter lives right after the app's data segment.
	counterAddr := app.DataBase + uint32((len(app.Data)+7) & ^7)

	usesFPU := false
	for _, tc := range suite.Cases {
		if tc.Unit == "FPU" {
			usesFPU = true
		}
	}
	// The blob's constant pool lives right after the counter word.
	blobDataBase := counterAddr + 8
	blob, blobData, err := buildBlob(suite, site.Period, counterAddr, blobDataBase, usesFPU)
	if err != nil {
		return nil, err
	}
	img, err := splice(app, blob, site.Block.StartI)
	if err != nil {
		return nil, err
	}
	// Extend the data segment to cover the counter word and append the
	// blob's constant pool.
	for uint32(len(img.Data)) < blobDataBase-img.DataBase {
		img.Data = append(img.Data, 0)
	}
	img.Data = append(img.Data, blobData...)
	return img, nil
}

// buildBlob assembles the self-contained test blob. The cheap throttle
// path (scratch saves + counter) runs on every visit; the full register
// save and the test burst run only on the selected visits.
func buildBlob(suite *lift.Suite, period int, counterAddr, dataBase uint32, fp bool) ([]isa.Inst, []byte, error) {
	a := isa.NewAsm()
	a.SetDataBase(dataBase)
	regs := savedIntRegs()
	scratch := []isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3}
	frame := int32((len(regs)+len(scratch)+1)*4 + fpSaveCount*4)
	frame = (frame + 15) &^ 15
	scratchOff := func(i int) int32 { return int32(4 * i) }
	regOff := func(i int) int32 { return int32(4 * (len(scratch) + i)) }
	fflagsSlot := int32(4 * (len(scratch) + len(regs)))
	fpOff := func(i int) int32 { return fflagsSlot + 4 + int32(4*i) }

	a.Addi(isa.SP, isa.SP, -frame)
	for i, r := range scratch {
		a.Sw(r, scratchOff(i), isa.SP)
	}
	// Visit counter + throttle.
	a.Li(isa.T0, counterAddr)
	a.Lw(isa.T1, 0, isa.T0)
	a.Addi(isa.T1, isa.T1, 1)
	a.Sw(isa.T1, 0, isa.T0)
	if period > 1 {
		// Period is a power of two, so the throttle check is a single
		// AND. Conditional branches reach only ±4KiB; large suites need
		// the inverted-branch + jump idiom to skip over the burst.
		a.Andi(isa.T3, isa.T1, int32(period-1))
		a.Beqz(isa.T3, "vega_run")
		a.J("vega_skip")
		a.Label("vega_run")
	}

	// Full state save for the test burst.
	for i, r := range regs {
		a.Sw(r, regOff(i), isa.SP)
	}
	if fp {
		for i := 0; i < fpSaveCount; i++ {
			a.Fsw(isa.Reg(1+i), fpOff(i), isa.SP)
		}
	}
	a.Csrrs(isa.T4, isa.CSRFflags, isa.Zero)
	a.Sw(isa.T4, fflagsSlot, isa.SP)

	suite.EmitInto(a, "vega_fail")
	a.J("vega_detected_end")
	a.Label("vega_fail")
	a.Ebreak()
	a.Label("vega_detected_end")

	a.Lw(isa.T4, fflagsSlot, isa.SP)
	a.Csrrw(isa.Zero, isa.CSRFflags, isa.T4)
	if fp {
		for i := 0; i < fpSaveCount; i++ {
			a.Flw(isa.Reg(1+i), fpOff(i), isa.SP)
		}
	}
	for i, r := range regs {
		a.Lw(r, regOff(i), isa.SP)
	}

	a.Label("vega_skip")
	for i, r := range scratch {
		a.Lw(r, scratchOff(i), isa.SP)
	}
	a.Addi(isa.SP, isa.SP, frame)

	img, err := a.Assemble()
	if err != nil {
		return nil, nil, fmt.Errorf("integrate: blob assembly: %w", err)
	}
	return img.Insts, img.Data, nil
}

// splice wires the blob in front of instruction index `at` using a
// trampoline: a single unconditional jump is inserted at the site (so
// every arrival — branch or fallthrough — runs the tests first) and the
// blob itself is appended past the end of the program, ending with a
// jump back to the displaced instruction. Only the one-instruction shift
// crosses existing branches, so conditional-branch ranges survive even
// for large suites; the long hops use jal's ±1MiB reach.
func splice(app *isa.Image, blob []isa.Inst, at int) (*isa.Image, error) {
	const k = 1 // the trampoline
	posIdx := func(i int) int {
		if i < at {
			return i
		}
		return i + k
	}
	targetIdx := func(t int) int {
		if t <= at {
			return t
		}
		return t + k
	}
	blobStart := len(app.Insts) + k
	out := make([]isa.Inst, 0, blobStart+len(blob)+1)
	out = append(out, app.Insts[:at]...)
	out = append(out, isa.Inst{Op: isa.JAL, Rd: isa.Zero, Imm: int32(4 * (blobStart - at))})
	out = append(out, app.Insts[at:]...)
	out = append(out, blob...)
	// Return to the displaced leader (now at index at+1).
	back := at + 1 - (blobStart + len(blob))
	out = append(out, isa.Inst{Op: isa.JAL, Rd: isa.Zero, Imm: int32(4 * back)})

	for i, inst := range app.Insts {
		switch inst.Op {
		case isa.JAL, isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
			t := i + int(inst.Imm)/4
			newOff := int32(4 * (targetIdx(t) - posIdx(i)))
			out[posIdx(i)].Imm = newOff
		}
	}

	img := &isa.Image{
		Base:     app.Base,
		Insts:    out,
		Labels:   make(map[string]uint32, len(app.Labels)),
		DataBase: app.DataBase,
		Data:     append([]byte(nil), app.Data...),
	}
	insertAddr := app.Base + 4*uint32(at)
	for name, addr := range app.Labels {
		if addr >= insertAddr && addr < app.DataBase {
			addr += 4 * uint32(k)
		}
		img.Labels[name] = addr
	}
	img.Words = make([]uint32, len(out))
	for i, inst := range out {
		w, err := isa.Encode(inst)
		if err != nil {
			return nil, fmt.Errorf("integrate: re-encode inst %d (%v): %w", i, inst, err)
		}
		img.Words[i] = w
	}
	return img, nil
}
