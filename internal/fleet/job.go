// Package fleet is the screening daemon behind cmd/vega-fleetd: an
// HTTP/JSON service that accepts netlist and workload-profile
// submissions, shards them across a bounded worker pool built on
// internal/par, and serves results and progress over a small REST
// surface (POST /jobs, GET /jobs/{id}, GET /jobs/{id}/result,
// DELETE /jobs/{id}, GET /metrics).
//
// Three job kinds cover the workflow phases a screening fleet runs at
// scale:
//
//   - "lift": error-lift a built-in unit (ALU/FPU) and return the test
//     suite, byte-identical to the `vega lift` library path.
//   - "sweep": aging-aware lifetime sweep of a SUBMITTED gate-level
//     Verilog netlist under a random-stimulus SP profile, byte-identical
//     to calling sta.AnalyzeCorners directly.
//   - "campaign": fault-injection campaign against a built-in unit's
//     lifted suite, byte-identical to the `vega inject` library path,
//     checkpointed per wave so a killed daemon resumes the job on
//     restart to the identical final report.
//
// The perf core is a single content-addressed artifact store
// (internal/store) shared by every worker: submissions are canonicalized
// by the hash of their content, so N concurrent submissions of the same
// netlist compile it exactly once (singleflight) and every later
// submission reuses the parsed netlist, compiled engine program, timing
// graph, SP profile and the netlist's aging factors at every corner of
// its lifetime grid. /metrics exposes the hit/coalesced/build/eviction
// counters behind the warm-vs-cold latency split that the load-test
// harness (internal/fleet/loadtest) and the benchmark's fleet-mixed
// workload report.
//
// Job state is persisted under Options.Dir in one append-only log of
// sealed records, each made durable before anyone is told of it, so
// jobs survive a daemon restart: queued and interrupted-running jobs
// are requeued, and campaign jobs resume from their per-job checkpoint
// file. A sweep's Verilog is stored once per distinct content under
// Dir/netlists/ and its records, and the submissions after the first,
// carry only the SHA-256. A finished job is a header in memory: its
// result stays in its frame in the log and its source in its blob, and
// the daemon holds at most heldSources sources.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/chaos"
	"repro/internal/lru"
)

// Job kinds.
const (
	KindLift     = "lift"
	KindSweep    = "sweep"
	KindCampaign = "campaign"
)

// Job statuses. Lifecycle: queued -> running -> done | failed |
// cancelled, where a job an idle worker takes at submission is accepted
// running. A daemon restart moves interrupted running jobs back to
// queued.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// Spec is a job submission. Kind selects which fields matter; unknown
// kinds are rejected at submit time. A POST body's unknown fields are
// ignored, so a submit_key an older client sends names nothing: every
// accepted Spec is a job of its own.
type Spec struct {
	Kind string `json:"kind"`

	// Unit selects the built-in unit for lift and campaign jobs
	// ("ALU" or "FPU").
	Unit string `json:"unit,omitempty"`
	// Years is the assumed lifetime for lift/campaign workflows
	// (default 10, like the CLIs).
	Years float64 `json:"years,omitempty"`
	// Mitigation enables the initial-value-dependency mitigation for
	// lift jobs.
	Mitigation bool `json:"mitigation,omitempty"`

	// Campaign parameters (see core.InjectOptions).
	Seed            uint64 `json:"seed,omitempty"`
	PerClass        int    `json:"per_class,omitempty"`
	MaxCycles       uint64 `json:"max_cycles,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`

	// Sweep parameters: a gate-level Verilog netlist plus the
	// workload-profile spec (random-stimulus packed cycles and seed)
	// and the lifetime grid to analyze.
	Verilog string `json:"verilog,omitempty"`
	// NetlistSHA names a sweep's Verilog by SHA-256, in place of the source
	// or beside it. Records never carry it; they carry Job.NetlistSHA.
	NetlistSHA string `json:"netlist_sha256,omitempty"`
	// Margin sets the clock period as CriticalDelay * Margin
	// (default 1.05, the scale-bench signoff convention).
	Margin float64 `json:"margin,omitempty"`
	// SPCycles is the number of 64-lane packed random-stimulus cycles
	// profiled (default 256); SPSeed seeds the stimulus streams.
	SPCycles int   `json:"sp_cycles,omitempty"`
	SPSeed   int64 `json:"sp_seed,omitempty"`
	// YearsGrid lists the sweep lifetimes (default 0, 3.3, 6.6, 10).
	YearsGrid []float64 `json:"years_grid,omitempty"`
}

// fill applies the spec defaults shared by the runner and the cache-key
// derivation (both must see identical values or warm probes would miss).
func (sp *Spec) fill() {
	if sp.Years == 0 {
		sp.Years = 10
	}
	switch sp.Kind {
	case KindCampaign:
		if sp.PerClass == 0 {
			sp.PerClass = 25
		}
	case KindSweep:
		if sp.Margin == 0 {
			sp.Margin = 1.05
		}
		if sp.SPCycles == 0 {
			sp.SPCycles = 256
		}
		if len(sp.YearsGrid) == 0 {
			sp.YearsGrid = []float64{0, 3.3, 6.6, 10}
		}
	}
}

// Upper bounds on a submission's numeric fields. They are far above
// anything the CLIs or the load test ask for and exist so one POST
// cannot commit a worker to an absurd amount of work or memory.
const (
	maxYears           = 100.0      // lifetimes; the paper sweeps 0–10
	maxMargin          = 100.0      // period = critical delay x margin
	maxYearsGrid       = 64         // corners analyzed by one sweep
	maxSPCycles        = 1 << 20    // packed random-stimulus cycles
	maxPerClass        = 100_000    // injections per fault class
	maxMaxCycles       = 50_000_000 // per-injection cycle budget; the engine's default for 0
	maxCheckpointEvery = 1 << 20    // behavioural batch size
)

// inRange reports lo <= v <= hi; NaN is in no range.
func inRange(v, lo, hi float64) bool { return v >= lo && v <= hi }

// validate rejects malformed and out-of-range submissions before they
// reach the queue (call it after fill, so a zero has become its
// default): a number a worker would panic on, or would dutifully turn
// into a result for a negative lifetime, is the client's error.
func (sp *Spec) validate() error {
	if !inRange(sp.Years, 0, maxYears) {
		return fmt.Errorf("fleet: years must be in [0, %g], got %g", maxYears, sp.Years)
	}
	if h := sp.NetlistSHA; h != "" && (sp.Kind != KindSweep || !isSHA(h)) {
		return fmt.Errorf("fleet: netlist_sha256 %q is not 64 lowercase hex digits naming a sweep's netlist", h)
	}
	switch sp.Kind {
	case KindLift, KindCampaign:
		if sp.Unit != "ALU" && sp.Unit != "FPU" {
			return fmt.Errorf("fleet: %s job needs unit ALU or FPU, got %q", sp.Kind, sp.Unit)
		}
		if sp.Kind == KindCampaign {
			if sp.PerClass < 1 || sp.PerClass > maxPerClass {
				return fmt.Errorf("fleet: per_class must be in [1, %d], got %d", maxPerClass, sp.PerClass)
			}
			// 0 leaves the budget to the injection engine's default.
			if sp.MaxCycles > maxMaxCycles {
				return fmt.Errorf("fleet: max_cycles must be in [0, %d], got %d", maxMaxCycles, sp.MaxCycles)
			}
			// 0 leaves the batch size to the injection engine's default.
			if sp.CheckpointEvery < 0 || sp.CheckpointEvery > maxCheckpointEvery {
				return fmt.Errorf("fleet: checkpoint_every must be in [0, %d], got %d", maxCheckpointEvery, sp.CheckpointEvery)
			}
		}
	case KindSweep:
		if (sp.Verilog != "" || sp.NetlistSHA == "") && strings.TrimSpace(sp.Verilog) == "" { // sent blank, or not at all
			return fmt.Errorf("fleet: sweep job needs a verilog netlist or its netlist_sha256")
		}
		if !(sp.Margin > 0 && sp.Margin <= maxMargin) {
			return fmt.Errorf("fleet: margin must be in (0, %g], got %g", maxMargin, sp.Margin)
		}
		if sp.SPCycles < 1 || sp.SPCycles > maxSPCycles {
			return fmt.Errorf("fleet: sp_cycles must be in [1, %d], got %d", maxSPCycles, sp.SPCycles)
		}
		if len(sp.YearsGrid) > maxYearsGrid {
			return fmt.Errorf("fleet: years_grid holds %d lifetimes, at most %d", len(sp.YearsGrid), maxYearsGrid)
		}
		for _, yr := range sp.YearsGrid {
			if !inRange(yr, 0, maxYears) {
				return fmt.Errorf("fleet: years_grid entries must be in [0, %g], got %g", maxYears, yr)
			}
		}
	default:
		return fmt.Errorf("fleet: unknown job kind %q", sp.Kind)
	}
	return nil
}

// Progress reports campaign completion (injections classified so far,
// out of the sampled universe). Zero for kinds without incremental
// progress.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Job is the persisted record of one submission. Result holds the
// job-kind-specific payload once Status is done (or a partial campaign
// report when cancelled mid-run).
type Job struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	// NetlistSHA is the SHA-256 of a sweep's Verilog, computed once per
	// submission: it names the source's blob under Dir/netlists/, keys the
	// artifact chain in the store, and stands in for the source on disk.
	NetlistSHA string `json:"netlist_sha256,omitempty"`
	Status     string `json:"status"`
	Error      string `json:"error,omitempty"`
	// CacheHit records whether the job's deepest compile artifact was
	// already resident in the shared store at submit time — the
	// warm/cold marker the load-test latency split keys on.
	CacheHit bool `json:"cache_hit"`
	// ServiceMs is the wall time the job spent executing on its worker
	// (excluding queue wait) — the latency the cache actually shortens,
	// measured server-side so client-side queueing can't distort the
	// load-test curve.
	ServiceMs float64 `json:"service_ms,omitempty"`
	// Attempts counts how many times the job has started executing —
	// across restarts, requeues and deadline retries. When it reaches
	// Options.MaxAttempts the job lands in failed with a reason instead
	// of requeueing forever: a poison job (one that crashes or hangs the
	// daemon every time) cannot pin the fleet in a crash loop.
	Attempts int             `json:"attempts,omitempty"`
	Progress Progress        `json:"progress"`
	Result   json.RawMessage `json:"result,omitempty"`

	// ckpt is the campaign checkpoint path, derived from the state dir
	// and ID by the server (not persisted — the derivation is the
	// contract, so restarted daemons find the same file).
	ckpt string
	// done is closed when the job reaches a terminal status: what the
	// ?wait= handlers park on. Nil on a record recovered terminal.
	done chan struct{}
	// adm is how a submitted job's first record write ended; nil on a
	// recovered job, and on an accepted one once its Submit has it.
	adm *admission
	// cancelling marks a queued job whose cancelled record is being
	// written: no worker may start it.
	cancelling bool
	// at is where the job's terminal frame is in the log once that frame
	// is durable. From then on the job keeps neither Result nor
	// Spec.Verilog: Server.Job reads them back from the frame and the
	// netlist blob.
	at frame
}

// admission ends when a new job's first record write does: done closes
// with receipt, the record as accepted, or with err, why the job was
// refused. The job's Submit waits on it, also when a worker took the job
// straight from Submit and its running record is the one written.
type admission struct {
	done    chan struct{}
	receipt *Job
	err     error
}

// terminal reports whether the job has left queued/running for good.
func (j *Job) terminal() bool {
	return j.Status != StatusQueued && j.Status != StatusRunning
}

// SweepPoint is one lifetime sample of a sweep job's result, mirroring
// core.OnsetPoint so daemon results line up with the library sweep.
type SweepPoint struct {
	Years           float64 `json:"years"`
	WNSSetup        float64 `json:"wns_setup"`
	WNSHold         float64 `json:"wns_hold"`
	SetupViolations int     `json:"setup_violations"`
	HoldViolations  int     `json:"hold_violations"`
}

// SweepResult is a sweep job's payload.
type SweepResult struct {
	Netlist  string       `json:"netlist"` // module name from the parsed source
	Cells    int          `json:"cells"`
	PeriodPs float64      `json:"period_ps"`
	Points   []SweepPoint `json:"points"`
}

// ckptPath is the campaign checkpoint file the injection engine owns.
func ckptPath(dir, id string) string { return filepath.Join(dir, id+".ckpt") }

// diskJob is the persisted form of a Job. The result payload moves to
// a base64 field because encoding/json re-indents an embedded
// RawMessage, and a result served after a restart must be byte-for-byte
// the report the job originally produced.
type diskJob struct {
	Job
	ResultRaw []byte `json:"result_raw,omitempty"`
}

// isSHA reports whether h is spelled as netlistSHA spells a hash.
func isSHA(h string) bool { return len(h) == 64 && strings.Trim(h, "0123456789abcdef") == "" }

// netlistSHA is the content address of a submitted netlist. The source
// goes through the hash one fixed buffer at a time: the hash has no
// WriteString, so io.WriteString would copy all of it first.
func netlistSHA(src string) string {
	h := sha256.New()
	var buf [16 << 10]byte
	for len(src) > 0 {
		n := copy(buf[:], src)
		h.Write(buf[:n]) // a hash.Hash never fails a write
		src = src[n:]
	}
	var sum [sha256.Size]byte
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], h.Sum(sum[:0]))
	return string(out[:])
}

// heldSources caps how many verified sources netlists keeps in memory.
const heldSources = 32

// netlists stores submitted Verilog once per distinct content: a sealed
// blob dir/<sha256>.v, written with the same durable atomic sequence as
// a job record, and a cache of the most recently used sources that the
// resident jobs of a netlist share. A hash is in src only after this
// process wrote its blob or verified it; a file that merely exists is
// never trusted, so the next submission of its content heals it, and a
// source the cache evicted is read and verified again on its next use.
//
// mu is held across a miss's disk I/O, so a hash has one writer and one
// tmp path at a time, and concurrent puts of one hash write one blob.
type netlists struct {
	fs  chaos.FS
	dir string
	mu  sync.Mutex
	src *lru.Cache[string, string] // sha256 -> source
}

func (n *netlists) path(h string) string { return filepath.Join(n.dir, h+".v") }

// put makes src durable under its hash h and returns the held copy.
// It must return before any record naming h is written.
func (n *netlists) put(h, src string) (string, error) {
	return n.hold(h, func() (string, error) {
		return src, chaos.WriteAtomic(n.fs, n.path(h), chaos.Seal([]byte(src)), 0o644)
	})
}

// get resolves a hash back to its source, trusting the blob only after
// both its envelope and its SHA-256 check out.
func (n *netlists) get(h string) (string, error) {
	return n.hold(h, func() (string, error) { return n.read(h) })
}

// hold returns h's source if it is held, and otherwise the one miss
// yields, held from then on, unless miss failed, until the cache evicts
// it.
func (n *netlists) hold(h string, miss func() (string, error)) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if v, ok := n.src.Get(h); ok {
		return v, nil
	}
	v, err := miss()
	if err != nil {
		return "", err
	}
	n.src.Add(h, v)
	return v, nil
}

// read loads and verifies h's blob from disk.
func (n *netlists) read(h string) (string, error) {
	data, err := n.fs.ReadFile(n.path(h))
	if err != nil {
		return "", err
	}
	payload, _, err := chaos.Open(data)
	if err != nil {
		return "", err
	}
	src := string(payload)
	if netlistSHA(src) != h {
		return "", fmt.Errorf("fleet: netlist blob %s.v does not hash to its name", h)
	}
	return src, nil
}
