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
//     suite, byte-identical to the vega-lift library path.
//   - "sweep": aging-aware lifetime sweep of a SUBMITTED gate-level
//     Verilog netlist under a random-stimulus SP profile, byte-identical
//     to calling sta.AnalyzeCorners directly.
//   - "campaign": fault-injection campaign against a built-in unit's
//     lifted suite, byte-identical to the vega-inject library path,
//     checkpointed per wave so a killed daemon resumes the job on
//     restart to the identical final report.
//
// The perf core is a single content-addressed artifact store
// (internal/store) shared by every worker: submissions are canonicalized
// by the hash of their content, so N concurrent submissions of the same
// netlist compile it exactly once (singleflight) and every later
// submission reuses the parsed netlist, compiled engine program, timing
// graph, SP profile and corner-library grid. /metrics exposes the
// hit/coalesced/build/eviction counters that the load-test harness
// (internal/fleet/loadtest) turns into the warm-vs-cold latency curve in
// BENCH_fleetd.json.
//
// Job state is persisted under Options.Dir with the same atomic-rename
// discipline as the injection checkpoints, so jobs survive a daemon
// restart: queued and interrupted-running jobs are requeued, and
// campaign jobs resume from their per-job checkpoint file. A sweep's
// Verilog is stored once per distinct content under Dir/netlists/ and
// its records carry only the SHA-256.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/chaos"
)

// Job kinds.
const (
	KindLift     = "lift"
	KindSweep    = "sweep"
	KindCampaign = "campaign"
)

// Job statuses. Lifecycle: queued -> running -> done | failed |
// cancelled. A daemon restart moves interrupted running jobs back to
// queued.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// Spec is a job submission. Kind selects which fields matter; unknown
// kinds are rejected at submit time.
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
	// Margin sets the clock period as CriticalDelay * Margin
	// (default 1.05, the scale-bench signoff convention).
	Margin float64 `json:"margin,omitempty"`
	// SPCycles is the number of 64-lane packed random-stimulus cycles
	// profiled (default 256); SPSeed seeds the stimulus streams.
	SPCycles int   `json:"sp_cycles,omitempty"`
	SPSeed   int64 `json:"sp_seed,omitempty"`
	// YearsGrid lists the sweep lifetimes (default 0, 3.3, 6.6, 10).
	YearsGrid []float64 `json:"years_grid,omitempty"`

	// SubmitKey is an optional client-chosen idempotency key: a resend
	// of the same logical submission (a retry after a lost response)
	// carries the same key and maps onto the already-accepted job
	// instead of creating a duplicate. The key embeds the content hash
	// of the spec, and the server verifies that hash on a dedup hit, so
	// a replayed key can never attach to different work.
	SubmitKey string `json:"submit_key,omitempty"`
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
	maxYears           = 100.0   // lifetimes; the paper sweeps 0–10
	maxMargin          = 100.0   // period = critical delay x margin
	maxYearsGrid       = 64      // corners analyzed by one sweep
	maxSPCycles        = 1 << 20 // packed random-stimulus cycles
	maxPerClass        = 100_000 // injections per fault class
	maxCheckpointEvery = 1 << 20 // behavioural batch size
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
	switch sp.Kind {
	case KindLift, KindCampaign:
		if sp.Unit != "ALU" && sp.Unit != "FPU" {
			return fmt.Errorf("fleet: %s job needs unit ALU or FPU, got %q", sp.Kind, sp.Unit)
		}
		if sp.Kind == KindCampaign {
			if sp.PerClass < 1 || sp.PerClass > maxPerClass {
				return fmt.Errorf("fleet: per_class must be in [1, %d], got %d", maxPerClass, sp.PerClass)
			}
			// 0 leaves the batch size to the injection engine's default.
			if sp.CheckpointEvery < 0 || sp.CheckpointEvery > maxCheckpointEvery {
				return fmt.Errorf("fleet: checkpoint_every must be in [0, %d], got %d", maxCheckpointEvery, sp.CheckpointEvery)
			}
		}
	case KindSweep:
		if strings.TrimSpace(sp.Verilog) == "" {
			return fmt.Errorf("fleet: sweep job needs a verilog netlist")
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

// jobPath is the job's persisted record; ckptPath is the campaign
// checkpoint file the injection engine owns.
func jobPath(dir, id string) string  { return filepath.Join(dir, id+".json") }
func ckptPath(dir, id string) string { return filepath.Join(dir, id+".ckpt") }

// diskJob is the persisted form of a Job. The result payload moves to
// a base64 field because encoding/json re-indents an embedded
// RawMessage, and a result served after a restart must be byte-for-byte
// the report the job originally produced.
type diskJob struct {
	Job
	ResultRaw []byte `json:"result_raw,omitempty"`
}

// saveJob persists j under dir, sealed in the self-verifying envelope
// and written with the durable atomic sequence (tmp write, fsync,
// rename, directory fsync): a torn write or power loss can never
// corrupt the record a restarting daemon recovers from, and silent
// on-disk corruption is detected — not loaded — by loadJobs. A sweep's
// record is written without the source, which lives once, in the blob
// its netlist hash names.
func saveJob(fs chaos.FS, dir string, j *Job) error {
	dj := diskJob{Job: *j, ResultRaw: j.Result}
	dj.Job.Result = nil
	dj.Spec.Verilog = ""
	data, err := json.MarshalIndent(&dj, "", "  ")
	if err != nil {
		return err
	}
	return chaos.WriteAtomic(fs, jobPath(dir, j.ID), chaos.Seal(data), 0o644)
}

// loadJobs recovers every persisted job record in dir, sorted by ID so
// requeue order is deterministic across restarts. Records that fail
// their envelope check or no longer parse are quarantined (moved to
// dir/quarantine/) and reported by name — one corrupt record must not
// brick every restart — and leftover .tmp debris from a crashed write
// is deleted (by the atomic-rename contract it was never committed).
// New resolves the netlist hashes the records carry.
func loadJobs(fs chaos.FS, dir string) (jobs []*Job, quarantined []string, err error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			_ = fs.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := fs.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		payload, _, err := chaos.Open(data)
		var dj diskJob
		if err == nil {
			err = json.Unmarshal(payload, &dj)
		}
		if err != nil {
			if err := setAside(fs, path, err); err != nil {
				return nil, nil, err
			}
			quarantined = append(quarantined, name)
			continue
		}
		j := dj.Job
		if dj.ResultRaw != nil {
			j.Result = dj.ResultRaw
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	return jobs, quarantined, nil
}

// setAside is the recovery policy for a record that cannot be trusted:
// quarantine it and carry on. A record (or the netlist blob it names)
// from newer tooling is not corruption: the daemon refuses to start
// rather than quarantine state that is presumed good.
func setAside(fs chaos.FS, path string, cause error) error {
	name := filepath.Base(path)
	if errors.Is(cause, chaos.ErrNewerVersion) {
		return fmt.Errorf("fleet: job record %s: %w", name, cause)
	}
	if _, qerr := chaos.Quarantine(fs, path); qerr != nil {
		return fmt.Errorf("fleet: job record %s corrupt (%v) and quarantine failed: %w", name, cause, qerr)
	}
	return nil
}

// recycling is the filesystem a daemon persists through: the one it was
// given, except that files are reused instead of unlinked and created.
// An atomic replace unlinks the file that held the previous version,
// and the next one creates a scratch file; on a filesystem where a
// creation costs more the more files were deleted lately (ext4 without
// a journal walks past every inode freed in the last minutes), a daemon
// that does both for every record transition and checkpoint runs at a
// speed set by what ran before it. So the file a rename is about to
// unlink first gets a spare name, and the next file to be written is
// that file: only a name that is new for good — a job's record, its
// checkpoint, a first-seen netlist — costs a creation, and nothing is
// deleted. The steps of chaos.WriteAtomic and their order are
// untouched. Spares live in dir and end in .tmp, so loadJobs clears
// them like any other debris.
type recycling struct {
	chaos.FS
	dir string

	mu   sync.Mutex
	idle []string // spare files, each the only name of its inode
	seq  int
}

// WriteFile moves an idle spare to name first, if there is one, so the
// write overwrites a file instead of creating one.
func (r *recycling) WriteFile(name string, data []byte, perm os.FileMode) error {
	r.mu.Lock()
	spare := ""
	if n := len(r.idle); n > 0 {
		spare, r.idle = r.idle[n-1], r.idle[:n-1]
	}
	r.mu.Unlock()
	if spare != "" {
		_ = r.FS.Rename(spare, name) // on failure the write creates name, as it would have
	}
	return r.FS.WriteFile(name, data, perm)
}

// Rename links the file at newpath, if there is one, to a spare name
// before replacing it, and counts it idle once the rename has made that
// its only name. A Link that fails (nothing to replace, or a filesystem
// without hard links) costs the recycling, never the rename.
func (r *recycling) Rename(oldpath, newpath string) error {
	r.mu.Lock()
	r.seq++
	keep := filepath.Join(r.dir, fmt.Sprintf("spare-%d.tmp", r.seq))
	r.mu.Unlock()
	kept := r.FS.Link(newpath, keep) == nil
	if err := r.FS.Rename(oldpath, newpath); err != nil || !kept {
		return err
	}
	r.mu.Lock()
	r.idle = append(r.idle, keep)
	r.mu.Unlock()
	return nil
}

// netlistSHA is the content address of a submitted netlist.
func netlistSHA(src string) string {
	h := sha256.New()
	_, _ = io.WriteString(h, src) // a hash.Hash never fails a write
	return hex.EncodeToString(h.Sum(nil))
}

// netlists stores submitted Verilog once per distinct content: a sealed
// blob dir/<sha256>.v, written with the same durable atomic sequence as
// a job record, and one interned string that every resident job of that
// netlist shares. A hash is in src only after this process wrote its
// blob or verified it during recovery; a file that merely exists is
// never trusted, so the next submission of its content heals it.
type netlists struct {
	fs  chaos.FS
	dir string
	mu  sync.Mutex        // held across a blob write: a hash has one tmp path
	src map[string]string // sha256 -> source
}

func (n *netlists) path(h string) string { return filepath.Join(n.dir, h+".v") }

// put makes src durable under its hash h and returns the interned copy.
// It must return before any record naming h is written.
func (n *netlists) put(h, src string) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if v, ok := n.src[h]; ok {
		return v, nil
	}
	if err := chaos.WriteAtomic(n.fs, n.path(h), chaos.Seal([]byte(src)), 0o644); err != nil {
		return "", err
	}
	n.src[h] = src
	return src, nil
}

// get resolves a recovered record's hash back to its source, trusting
// the blob only after both its envelope and its SHA-256 check out.
func (n *netlists) get(h string) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if v, ok := n.src[h]; ok {
		return v, nil
	}
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
	n.src[h] = src
	return src, nil
}
