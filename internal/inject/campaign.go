package inject

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/chaos"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/lift"
	"repro/internal/module"
	"repro/internal/par"
)

// Outcome classifies one injection run against the golden execution.
type Outcome int

// Injection outcomes.
const (
	// Detected: the suite trapped (ebreak) — the built-in detection
	// mechanism caught the fault.
	Detected Outcome = iota
	// Masked: the program ran to completion with an architectural state
	// identical to the golden run; the fault had no effect.
	Masked
	// SDCEscape: the program ran to completion but its final state
	// differs from golden — a silent data corruption the suite missed.
	SDCEscape
	// StallCrash: the program hung (handshake stall, cycle-budget
	// exhaustion) or faulted (bad memory access, undecodable fetch) —
	// loud failures an OS-level watchdog would catch.
	StallCrash
)

func (o Outcome) String() string {
	switch o {
	case Detected:
		return "detected"
	case Masked:
		return "masked"
	case SDCEscape:
		return "sdc-escape"
	case StallCrash:
		return "stall-crash"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// classify maps a finished (non-interrupted) halt reason to an outcome.
// The golden run is known to HaltExit within the same cycle budget, so
// HaltLimit on the faulty run means the fault made the program hang.
func classify(halt cpu.HaltReason, digestEqual bool) Outcome {
	switch halt {
	case cpu.HaltBreak:
		return Detected
	case cpu.HaltExit:
		if digestEqual {
			return Masked
		}
		return SDCEscape
	default: // HaltStalled, HaltFault, HaltLimit
		return StallCrash
	}
}

// Config tunes one injection campaign.
type Config struct {
	Module *module.Module
	// Image is the program every injection runs: the standalone lifted
	// suite, or an embedded application carrying the suite.
	Image *isa.Image
	// Mode labels the image ("standalone" or "embedded") in the report
	// and checkpoint.
	Mode string
	// Specs is the injection universe (see SampleUniverse).
	Specs []Spec
	// Seed is recorded in the report/checkpoint and validated on resume.
	Seed uint64

	MemSize int
	// MaxCycles is the per-injection cycle budget; the golden run must
	// exit within it.
	MaxCycles uint64
	// Parallelism bounds the par.Map fan-out (0 = all CPUs). The report
	// is byte-identical at every setting.
	Parallelism int

	// CheckpointPath, when set, persists completed injections after
	// every wave via an atomic rename, and resumes from the file if it
	// exists. A resumed campaign produces the identical final report.
	CheckpointPath string
	// CheckpointEvery is the wave size between checkpoints (default 64).
	CheckpointEvery int
	// OnCheckpoint, when set, observes every checkpoint write with the
	// number of completed injections — the deterministic interruption
	// hook the resume tests use.
	OnCheckpoint func(done int)

	// FS is the filesystem seam checkpoint I/O goes through (nil: the
	// real filesystem). Tests inject chaos.Plan faults here to prove the
	// checkpoint discipline survives torn writes, bit flips and crashes
	// at every I/O step.
	FS chaos.FS

	// Guards names the always-on runtime guards (see internal/guard) to
	// attach to the unit seam during every injection: "all", or a subset
	// of guard.Names for the module's unit. Guards are observe-only — a
	// guarded campaign replays bit-identically to an unguarded one — but
	// their verdicts become a detection source: a completed run whose
	// state diverged from golden AND whose guard log fired is Detected
	// instead of SDCEscape. Empty disables guards.
	Guards []string

	// guardSet is Guards resolved against the module's registry, in
	// canonical order (filled by prepare).
	guardSet []guard.Guard
}

func (c *Config) fill() {
	if c.MemSize == 0 {
		c.MemSize = 1 << 20
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 50_000_000
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	if c.Mode == "" {
		c.Mode = "standalone"
	}
	if c.FS == nil {
		c.FS = chaos.OS{}
	}
}

// Result is one classified injection.
type Result struct {
	Index   int
	Spec    string
	Class   string
	Outcome string
	Halt    string
	Cycles  uint64
	// Digest is the final architectural-state hash (equal to the golden
	// digest exactly for masked runs); zero for runs that did not exit.
	Digest uint64 `json:",omitempty"`
	// DivergedAt is 1 + the CPU cycle count at the first unit operation
	// whose response (result, flags, ok) differed from the golden model;
	// 0 if no response ever diverged. Timing-only netlist divergences
	// that produce the correct value do not count — they are
	// architecturally invisible.
	DivergedAt uint64 `json:",omitempty"`
	// Case is the suite case that trapped (meaningful when detected in
	// standalone mode).
	Case int `json:",omitempty"`
	// Guard is the first runtime guard that fired during the run (empty
	// when guards were off or never fired); GuardOp is the 1-based unit-op
	// index of that first fire. Guards record on every outcome — a masked
	// run can carry a guard fire when a corrupted intermediate result was
	// later overwritten — but only reclassify SDCEscape to Detected.
	Guard   string `json:",omitempty"`
	GuardOp uint64 `json:",omitempty"`
}

// ClassStats aggregates outcomes per fault class over the completed
// injections.
type ClassStats struct {
	Class      string
	Total      int
	Detected   int
	Masked     int
	SDCEscape  int
	StallCrash int
	// EscapeRate is SDCEscape/Total — the headline robustness metric:
	// the fraction of this class that silently corrupts state without
	// the suite (or a watchdog) noticing.
	EscapeRate float64
	// GuardDetected counts the Detected results this class owes to the
	// runtime guards: completed runs with a divergent digest that only
	// the guard log flagged (halt "exit" + outcome "detected" can arise
	// no other way). Omitted when guards are off.
	GuardDetected int `json:",omitempty"`
	// GuardFired counts every result in this class whose guard log fired,
	// including masked and stalled runs. Omitted when guards are off.
	GuardFired int `json:",omitempty"`
}

// Report is the campaign's outcome. With a deadline or cancellation it
// may be Partial: Classes then covers only the Completed injections —
// coverage so far, not the full universe.
type Report struct {
	Unit      string
	Mode      string
	Seed      uint64
	MaxCycles uint64
	// Guards lists the attached runtime guards in canonical order;
	// omitted (and absent from the JSON) when the campaign ran unguarded.
	Guards    []string `json:",omitempty"`
	Total     int
	Completed int
	Partial   bool
	Classes   []ClassStats
	Results   []Result
}

// JSON renders the report deterministically (stable field order, sorted
// by injection index).
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// checkpointVersion is the one checkpoint schema this build writes and
// resumes from; the guard list is simply empty for an unguarded
// campaign. A file from an older schema is set aside like a corrupt one
// (the deterministic engine re-derives its results), a file from a newer
// one is refused as stale tooling.
const checkpointVersion = 2

// checkpoint is the persisted campaign state: identity plus every
// completed result.
type checkpoint struct {
	Version   int
	Unit      string
	Mode      string
	Seed      uint64
	MaxCycles uint64
	Guards    []string `json:",omitempty"`
	Specs     []string
	Results   []Result
}

// Run executes the campaign: one golden run, then every injection
// classified by packed concurrent fault simulation, in checkpointed
// batches. Cancel or expire ctx to get a graceful partial report
// instead of an error; injections that were mid-flight resume from the
// checkpoint on the next Run.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	rep, _, err := RunWithStats(ctx, cfg)
	return rep, err
}

// prepare fills cfg's defaults, checks the universe against the module,
// resolves the guard list and runs the golden image: fault-free
// behavioural execution under the same budget. Its digest is the
// Masked/SDCEscape oracle; its unit-op count drives the retirement
// accounting and the behavioural no-fire shortcut.
func prepare(cfg *Config) (*goldenInfo, error) {
	cfg.fill()
	if len(cfg.Specs) == 0 {
		return nil, errors.New("inject: empty injection universe")
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("inject: CheckpointEvery must be positive, got %d", cfg.CheckpointEvery)
	}
	for _, s := range cfg.Specs {
		if s.Unit != cfg.Module.Name {
			return nil, fmt.Errorf("inject: spec %q does not target module %s", s.String(), cfg.Module.Name)
		}
	}
	if len(cfg.Guards) > 0 {
		gs, err := guard.Select(cfg.Module.Name, cfg.Guards)
		if err != nil {
			return nil, err
		}
		cfg.guardSet = gs
	}
	return goldenRun(cfg)
}

// RunWithStats is Run plus the packed-path accounting (wave occupancy,
// lane retirement, replay savings). The stats cover only the work this
// call performed — injections restored from a checkpoint contribute
// nothing.
func RunWithStats(ctx context.Context, cfg Config) (*Report, *PackedStats, error) {
	g, err := prepare(&cfg)
	if err != nil {
		return nil, nil, err
	}

	results := make([]Result, len(cfg.Specs))
	done := make([]bool, len(cfg.Specs))

	if cfg.CheckpointPath != "" {
		cp, err := loadCheckpoint(cfg.FS, cfg.CheckpointPath)
		if err != nil {
			return nil, nil, err
		}
		if cp != nil {
			if err := validateCheckpoint(cp, &cfg); err != nil {
				return nil, nil, err
			}
			for _, r := range cp.Results {
				results[r.Index] = r
				done[r.Index] = true
			}
		}
	}

	var pending []int
	for i := range cfg.Specs {
		if !done[i] {
			pending = append(pending, i)
		}
	}

	// An injection result is a pure function of its spec (the campaign
	// seed only drives universe sampling, and intermittent LFSR phases
	// live inside the spec), so identical specs share one run. Duplicates
	// are common when SampleUniverse draws N larger than a small
	// universe — the embedded transient window, for instance — and the
	// shared run keeps the report byte-identical to evaluating each copy.
	rep := make(map[string]int, len(cfg.Specs))
	for i := range results {
		if done[i] {
			rep[results[i].Spec] = i
		}
	}
	dup := make(map[int]int)
	unique := pending[:0]
	for _, idx := range pending {
		key := cfg.Specs[idx].String()
		if ri, ok := rep[key]; ok {
			dup[idx] = ri
			continue
		}
		rep[key] = idx
		unique = append(unique, idx)
	}
	pending = unique

	stats := newPackedStats(g)
	if err := runPacked(ctx, &cfg, g, stats, pending, results, done); err != nil {
		return nil, nil, err
	}
	if len(dup) > 0 {
		for idx, ri := range dup {
			if done[ri] && !done[idx] {
				r := results[ri]
				r.Index = idx
				results[idx] = r
				done[idx] = true
			}
		}
		if err := persist(&cfg, results, done); err != nil {
			return nil, nil, err
		}
	}
	return buildReport(&cfg, results, done), stats, nil
}

// taskOut is one replay's outcome inside a par.Map: ok=false means ctx
// interrupted it and the injection stays pending.
type taskOut struct {
	r  Result
	ok bool
}

// interrupted reports whether a pool stopped because its context was
// cancelled or expired, which ends a campaign gracefully, not in error.
func interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// unit is one packed work item: a run of same-class pending injections.
// Netlist classes fill the 63 fault lanes of one wave; behavioural
// classes are grouped only for checkpoint granularity.
type unit struct {
	class Class
	idxs  []int
}

// partitionUnits splits the pending injections, per class and in index
// order, into packed work units.
func partitionUnits(cfg *Config, pending []int) []unit {
	byClass := make(map[Class][]int)
	for _, idx := range pending {
		cl := cfg.Specs[idx].Class
		byClass[cl] = append(byClass[cl], idx)
	}
	var units []unit
	for _, cl := range Classes() {
		idxs := byClass[cl]
		size := engine.Lanes - 1
		if cl == Transient || cl == Intermittent {
			size = cfg.CheckpointEvery
		}
		for len(idxs) > 0 {
			n := min(size, len(idxs))
			units = append(units, unit{class: cl, idxs: idxs[:n]})
			idxs = idxs[n:]
		}
	}
	return units
}

// runPacked is the packed campaign loop: pending injections are
// partitioned into per-class units (one wave, or one behavioural
// batch), processed par.N at a time, checkpointing after every batch.
func runPacked(ctx context.Context, cfg *Config, g *goldenInfo, stats *PackedStats, pending []int, results []Result, done []bool) error {
	units := partitionUnits(cfg, pending)
	batch := par.N(cfg.Parallelism)
	for len(units) > 0 && ctx.Err() == nil {
		n := min(batch, len(units))
		cur := units[:n]
		units = units[n:]

		type unitOut struct {
			rs   []Result
			ok   []bool
			acct waveAcct
		}
		outs, err := par.Map(ctx, len(cur), cfg.Parallelism, func(ctx context.Context, i int) (unitOut, error) {
			rs, ok, acct, err := runUnit(ctx, cfg, g, cur[i])
			return unitOut{rs, ok, acct}, err
		})
		for i, o := range outs {
			if o.rs == nil {
				continue // unit aborted before producing results
			}
			for j, idx := range cur[i].idxs {
				if o.ok[j] {
					results[idx] = o.rs[j]
					done[idx] = true
				}
			}
			stats.merge(cur[i].class, o.acct)
		}
		if err != nil && !interrupted(err) {
			return err
		}
		if err := persist(cfg, results, done); err != nil {
			return err
		}
	}
	return nil
}

// runUnit dispatches one work unit: a packed wave for netlist classes,
// a shortcut-or-replay sweep for behavioural classes.
func runUnit(ctx context.Context, cfg *Config, g *goldenInfo, u unit) ([]Result, []bool, waveAcct, error) {
	if u.class == StuckAt || u.class == MultiFault {
		return runPackedWave(ctx, cfg, g, u.idxs)
	}
	results := make([]Result, len(u.idxs))
	done := make([]bool, len(u.idxs))
	var acct waveAcct
	for i, idx := range u.idxs {
		if ctx.Err() != nil {
			break
		}
		r, ok, replayed, err := runBehavioural(ctx, cfg, g, idx)
		if err != nil {
			return results, done, acct, err
		}
		if ok {
			results[i], done[i] = r, true
			if replayed {
				acct.behReplayed++
			} else {
				acct.behShortcut++
			}
		}
	}
	return results, done, acct, nil
}

// runOne executes one behavioural injection as a full replay. ok=false
// means the run was interrupted by ctx before finishing — the injection
// stays pending for resume.
func runOne(ctx context.Context, cfg *Config, idx int, g *goldenInfo) (Result, bool, error) {
	s := cfg.Specs[idx]
	c := cpu.Recycled(cfg.MemSize)
	defer c.Release()
	if err := Attach(cfg.Module, c, s); err != nil {
		return Result{}, false, fmt.Errorf("injection %d (%s): %w", idx, s.String(), err)
	}
	return runAttached(ctx, cfg, idx, g, c)
}

// runAttached runs the image on a CPU whose faulty backend is already
// installed and classifies the outcome.
func runAttached(ctx context.Context, cfg *Config, idx int, g *goldenInfo, c *cpu.CPU) (Result, bool, error) {
	d := track(cfg.Module, c)
	log := attachGuards(cfg, c)
	c.Load(cfg.Image)
	halt := c.RunCtx(ctx, cfg.MaxCycles)
	if halt == cpu.HaltInterrupted {
		return Result{}, false, nil
	}
	return finish(cfg, idx, c, halt, g, d, log), true, nil
}

// finish classifies a completed (non-interrupted) injection run. Shared
// by the behavioural replays, the packed path's continuations and the
// scalar oracle, so all produce byte-identical results. The state digest
// (an FNV pass over all of memory) is computed only for runs that
// completed: a trapped or hung run's state is never compared against the
// golden digest, and skipping the hash there is a large fraction of the
// campaign cost.
//
// A non-nil guard log adds the runtime-guard detection source: the
// first fire is recorded on every outcome, and a completed run whose
// state diverged from golden (SDCEscape) is reclassified Detected when
// the guards flagged it — the corruption was loud at the moment it
// happened, no scheduled test window required. Masked runs keep their
// outcome even when a guard fired (the fault was real but ultimately
// harmless), so a guarded report differs from an unguarded one only in
// Escape-to-Detected moves plus the added guard fields.
func finish(cfg *Config, idx int, c *cpu.CPU, halt cpu.HaltReason, g *goldenInfo, d *diverge, log *guard.Log) Result {
	s := cfg.Specs[idx]
	var dig uint64
	eq := false
	if halt == cpu.HaltExit {
		dig = digest(c)
		eq = dig == g.digest
	}
	out := classify(halt, eq)
	r := Result{
		Index:  idx,
		Spec:   s.String(),
		Class:  s.Class.String(),
		Halt:   halt.String(),
		Cycles: c.Cycles,
		Digest: dig,
	}
	if log != nil && log.Fired() {
		r.Guard = log.First
		r.GuardOp = log.FirstOp
		if out == SDCEscape {
			out = Detected
		}
	}
	r.Outcome = out.String()
	if d.hit {
		r.DivergedAt = d.at + 1
	}
	if halt == cpu.HaltBreak {
		r.Case = lift.FailedCase(c.X[9])
	}
	return r
}

// digest folds the full architectural state (registers, FP state, exit
// code, memory) into one hash — the golden-comparison oracle. The mix
// is FNV-1a lifted to 64-bit words: hashing memory one word at a time
// instead of byte-at-a-time makes the digest ~10x cheaper, and with a
// megabyte-scale arena per injection the digest is a first-order cost
// of the whole campaign. Any change to the word stream changes the
// hash; the packed path and its scalar oracle share this function, so
// their byte-identity contract is unaffected by the exact mix.
func digest(c *cpu.CPU) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(c.ExitCode))
	mix(uint64(c.FFlags))
	for _, v := range c.X {
		mix(uint64(v))
	}
	for _, v := range c.F {
		mix(uint64(v))
	}
	mem := c.Mem
	for len(mem) >= 8 {
		mix(binary.LittleEndian.Uint64(mem))
		mem = mem[8:]
	}
	var tail uint64
	for i, b := range mem {
		tail |= uint64(b) << (8 * uint(i))
	}
	mix(tail)
	mix(uint64(len(c.Mem)))
	return h
}

func persist(cfg *Config, results []Result, done []bool) error {
	if cfg.CheckpointPath == "" {
		if cfg.OnCheckpoint != nil {
			cfg.OnCheckpoint(countDone(done))
		}
		return nil
	}
	cp := checkpoint{
		Version:   checkpointVersion,
		Unit:      cfg.Module.Name,
		Mode:      cfg.Mode,
		Seed:      cfg.Seed,
		MaxCycles: cfg.MaxCycles,
		Guards:    guardNames(cfg.guardSet),
	}
	for _, s := range cfg.Specs {
		cp.Specs = append(cp.Specs, s.String())
	}
	for i, ok := range done {
		if ok {
			cp.Results = append(cp.Results, results[i])
		}
	}
	data, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return err
	}
	// Sealed atomic replace: the envelope checksum detects silent
	// corruption at the next load, and WriteAtomic's tmp-write -> fsync
	// -> rename -> dir-fsync sequence guarantees a reader (or a resumed
	// campaign after a crash, including power loss) sees either the
	// previous checkpoint or the new one, never a torn write.
	if err := chaos.WriteAtomic(cfg.FS, cfg.CheckpointPath, chaos.Seal(data), 0o644); err != nil {
		return fmt.Errorf("inject: checkpoint: %w", err)
	}
	if cfg.OnCheckpoint != nil {
		cfg.OnCheckpoint(countDone(done))
	}
	return nil
}

// loadCheckpoint reads and unseals a checkpoint. A missing file means a
// fresh campaign. A file that cannot be trusted — no envelope, failed
// envelope check (flipped bit, torn tail), unparsable JSON, or an older
// schema — is quarantined next to the state it failed to load as, and
// the campaign restarts from scratch: the deterministic engine
// re-derives every result, so graceful degradation costs recompute,
// never correctness. A newer envelope or schema is refused instead: the
// file is presumed good and the binary stale.
func loadCheckpoint(fs chaos.FS, path string) (*checkpoint, error) {
	data, err := fs.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("inject: checkpoint: %w", err)
	}
	payload, _, err := chaos.Open(data)
	if errors.Is(err, chaos.ErrNewerVersion) {
		return nil, fmt.Errorf("inject: checkpoint %s: %w", path, err)
	}
	var cp checkpoint
	if err == nil {
		err = json.Unmarshal(payload, &cp)
	}
	switch {
	case err != nil:
	case cp.Version > checkpointVersion:
		return nil, fmt.Errorf("inject: checkpoint %s has schema version %d, this build understands %d — "+
			"refusing a stale resume", path, cp.Version, checkpointVersion)
	case cp.Version < checkpointVersion:
		err = fmt.Errorf("schema version %d predates %d", cp.Version, checkpointVersion)
	default:
		return &cp, nil
	}
	if _, qerr := chaos.Quarantine(fs, path); qerr != nil {
		return nil, fmt.Errorf("inject: checkpoint %s unusable (%v) and quarantine failed: %w", path, err, qerr)
	}
	return nil, nil
}

// validateCheckpoint rejects a checkpoint written by a different
// campaign: resuming it would silently mix incompatible results. That
// includes a different guard list — results written without guards have
// no verdicts to reclassify on, so mixing them with guarded results
// would silently understate detection.
func validateCheckpoint(cp *checkpoint, cfg *Config) error {
	if want := guardNames(cfg.guardSet); !equalStrings(cp.Guards, want) {
		return fmt.Errorf("inject: checkpoint %s was written %s but this campaign runs %s — "+
			"resuming would mix unguarded and guarded classifications; delete the checkpoint or pass the same guard list",
			cfg.CheckpointPath, describeGuards(cp.Guards), describeGuards(want))
	}
	if cp.Unit != cfg.Module.Name || cp.Mode != cfg.Mode ||
		cp.Seed != cfg.Seed || cp.MaxCycles != cfg.MaxCycles || len(cp.Specs) != len(cfg.Specs) {
		return fmt.Errorf("inject: checkpoint %s belongs to a different campaign "+
			"(unit=%s mode=%s seed=%d cycles=%d n=%d)",
			cfg.CheckpointPath, cp.Unit, cp.Mode, cp.Seed, cp.MaxCycles, len(cp.Specs))
	}
	for i, s := range cfg.Specs {
		if cp.Specs[i] != s.String() {
			return fmt.Errorf("inject: checkpoint %s spec %d mismatch: %q vs %q",
				cfg.CheckpointPath, i, cp.Specs[i], s.String())
		}
	}
	for _, r := range cp.Results {
		if r.Index < 0 || r.Index >= len(cfg.Specs) {
			return fmt.Errorf("inject: checkpoint %s result index %d out of range", cfg.CheckpointPath, r.Index)
		}
	}
	return nil
}

func countDone(done []bool) int {
	n := 0
	for _, d := range done {
		if d {
			n++
		}
	}
	return n
}

func buildReport(cfg *Config, results []Result, done []bool) *Report {
	rep := &Report{
		Unit:      cfg.Module.Name,
		Mode:      cfg.Mode,
		Seed:      cfg.Seed,
		MaxCycles: cfg.MaxCycles,
		Total:     len(cfg.Specs),
	}
	if len(cfg.guardSet) > 0 {
		rep.Guards = guardNames(cfg.guardSet)
	}
	byClass := make(map[string]*ClassStats)
	var order []string
	for _, cl := range Classes() {
		cs := &ClassStats{Class: cl.String()}
		byClass[cl.String()] = cs
		order = append(order, cl.String())
	}
	for i, r := range results {
		if !done[i] {
			continue
		}
		rep.Completed++
		rep.Results = append(rep.Results, r)
		cs := byClass[r.Class]
		cs.Total++
		switch r.Outcome {
		case Detected.String():
			cs.Detected++
			if r.Halt == cpu.HaltExit.String() {
				// A completed run can only be Detected via the guard
				// log — the built-in suite detection traps (HaltBreak).
				cs.GuardDetected++
			}
		case Masked.String():
			cs.Masked++
		case SDCEscape.String():
			cs.SDCEscape++
		case StallCrash.String():
			cs.StallCrash++
		}
		if r.Guard != "" {
			cs.GuardFired++
		}
	}
	rep.Partial = rep.Completed < rep.Total
	for _, name := range order {
		cs := byClass[name]
		if cs.Total > 0 {
			cs.EscapeRate = float64(cs.SDCEscape) / float64(cs.Total)
		}
		rep.Classes = append(rep.Classes, *cs)
	}
	return rep
}
