package fleet

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/par"
	"repro/internal/store"
)

// Options tunes a Server.
type Options struct {
	// Dir is the job-state directory (required). Job records and
	// campaign checkpoints persist here; a daemon restarted on the same
	// directory requeues interrupted work.
	Dir string
	// Workers bounds the worker pool (default 4): at most this many
	// jobs execute concurrently.
	Workers int
	// Parallelism bounds each job's internal fan-out (default 1: the
	// pool provides the concurrency, jobs stay sequential inside).
	// Results are byte-identical at every setting.
	Parallelism int
	// CacheCap bounds the shared content-addressed store (default 128
	// artifacts).
	CacheCap int
	// Store, when non-nil, is used instead of building a fresh store —
	// the warm-restart seam: a supervisor that replaces a crashed
	// daemon in-process hands the compiled artifacts across, and the
	// torture harness uses it so a 40-point crash matrix compiles its
	// workflow once. CacheCap is ignored when Store is set.
	Store *store.Store
	// FS is the filesystem seam all job-record and checkpoint I/O goes
	// through (default: the real filesystem). The chaos tests inject
	// seeded fault plans here.
	FS chaos.FS
	// JobTimeout, when positive, is the per-job execution deadline. A
	// job that exceeds it is interrupted at its next cancellation point
	// (campaigns flush their checkpoint first) and retried — until
	// MaxAttempts, when it fails with a reason. Zero disables the
	// deadline.
	JobTimeout time.Duration
	// MaxAttempts caps how many times one job may start executing
	// (default 5): requeues from restarts and deadline retries beyond
	// the cap land the job in failed instead of looping forever.
	MaxAttempts int
	// MaxBodyBytes caps a POST /jobs body (default 8 MiB). Oversized
	// submissions get 413, not an OOM.
	MaxBodyBytes int64
}

func (o *Options) fill() {
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.Parallelism == 0 {
		o.Parallelism = 1
	}
	if o.CacheCap == 0 {
		o.CacheCap = 128
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 5
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.FS == nil {
		o.FS = chaos.OS{}
	}
}

// Server is the fleet daemon: a job queue, a bounded worker pool built
// on par.ForEach, and the shared content-addressed artifact store.
type Server struct {
	opts                    Options
	store                   *store.Store
	runner                  *runner
	fs                      chaos.FS
	netlists                *netlists    // own locks; never touched under mu
	byHash, unknown, inline atomic.Int64 // NetlistCounts

	mu      sync.Mutex
	jobs    map[string]*Job
	cancels map[string]context.CancelFunc // running jobs only
	byKey   map[string]string             // Spec.SubmitKey -> job ID (idempotent resubmit)
	// quarantined lists the corrupt record files moved aside at startup
	// (relative names) — served on /metrics so corruption is loud even
	// though it no longer stops the daemon.
	quarantined []string
	seq         int
	closed      bool

	queue    chan string
	ctx      context.Context // cancelled by Shutdown: drains workers
	cancel   context.CancelFunc
	workers  sync.WaitGroup
	draining bool // set under mu by Shutdown before cancelling
	// released is cancelled by ReleaseWaiters: handlers parked in ?wait=
	// answer at once, so a drain never waits out their timeouts.
	released context.Context
	release  context.CancelFunc

	// progressHook, when set before Start, observes every progress
	// update outside the server lock — the deterministic interruption
	// point the restart/resume tests use.
	progressHook func(id string, p Progress)
}

// queueCap bounds the submission backlog. Submissions beyond it fail
// fast with 503 instead of blocking the HTTP handler.
const queueCap = 8192

// New creates a server over opts.Dir, recovering persisted job state:
// done/failed/cancelled records are served as-is, queued records and
// running records from an interrupted daemon are requeued (campaign
// jobs then resume from their checkpoint files), and corrupt records
// are quarantined instead of failing the start, as is a record whose
// netlist blob is missing or fails its envelope or SHA-256 check. Call
// Start to launch the workers.
func New(opts Options) (*Server, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, fmt.Errorf("fleet: Options.Dir is required")
	}
	opts.FS = &recycling{FS: opts.FS, dir: opts.Dir}
	blobs := &netlists{fs: opts.FS, dir: filepath.Join(opts.Dir, "netlists"), src: make(map[string]string)}
	if err := opts.FS.MkdirAll(blobs.dir, 0o755); err != nil {
		return nil, err
	}
	st := opts.Store
	if st == nil {
		st = store.New(opts.CacheCap)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		store:    st,
		runner:   &runner{store: st, parallelism: opts.Parallelism, fs: opts.FS},
		fs:       opts.FS,
		netlists: blobs,
		jobs:     make(map[string]*Job),
		cancels:  make(map[string]context.CancelFunc),
		byKey:    make(map[string]string),
		queue:    make(chan string, queueCap),
		ctx:      ctx,
		cancel:   cancel,
	}
	s.released, s.release = context.WithCancel(context.Background())
	prior, quarantined, err := loadJobs(opts.FS, opts.Dir)
	if err != nil {
		cancel()
		return nil, err
	}
	s.quarantined = quarantined
	// Keep seq ahead of every record name recovery saw, loaded or set
	// aside (IDs are zero-padded, so the numeric max is what matters): the
	// submitter of a quarantined job may still be asking for its ID, and a
	// second quarantine of that name would overwrite the evidence.
	for _, name := range quarantined {
		s.seeID(strings.TrimSuffix(name, ".json"))
	}
	for _, j := range prior {
		s.seeID(j.ID)
		if j.Spec.Kind == KindSweep {
			// A sweep's record names its source by hash. Without the hash
			// (the empty one names no blob) or with a blob that fails
			// verification, the record is as untrusted as a corrupt one.
			if j.Spec.Verilog, err = blobs.get(j.NetlistSHA); err != nil {
				if err := setAside(opts.FS, jobPath(opts.Dir, j.ID), err); err != nil {
					cancel()
					return nil, err
				}
				s.quarantined = append(s.quarantined, j.ID+".json")
				continue
			}
		}
		j.ckpt = ckptPath(opts.Dir, j.ID)
		if !j.terminal() {
			if j.Attempts >= opts.MaxAttempts {
				// Poison-job fuse: a record that keeps getting requeued
				// (daemon crashed or timed out on it MaxAttempts times)
				// fails with a reason instead of crash-looping the fleet.
				j.Status = StatusFailed
				j.Error = fmt.Sprintf("fleet: requeue attempts exhausted (%d/%d) — poison job?",
					j.Attempts, opts.MaxAttempts)
			} else {
				j.Status = StatusQueued
				j.done = make(chan struct{})
			}
			if err := saveJob(opts.FS, opts.Dir, j); err != nil {
				cancel()
				return nil, err
			}
			if j.Status == StatusQueued {
				s.queue <- j.ID
			}
		}
		s.jobs[j.ID] = j
		if j.Spec.SubmitKey != "" {
			s.byKey[j.Spec.SubmitKey] = j.ID
		}
	}
	return s, nil
}

// seeID advances seq past a job ID that is already taken.
func (s *Server) seeID(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "j%06d", &n); err == nil && n > s.seq {
		s.seq = n
	}
}

// Start launches the worker pool: par.ForEach with one task per worker
// slot, each draining the queue until Shutdown. The pool IS the
// concurrency bound — jobs beyond Workers wait in the queue.
func (s *Server) Start() {
	s.workers.Add(1)
	go func() {
		defer s.workers.Done()
		// Error-free by construction: worker loops return nil.
		_ = par.ForEach(context.Background(), s.opts.Workers, s.opts.Workers,
			func(_ context.Context, i int) error {
				s.worker()
				return nil
			})
	}()
}

// worker drains the queue until the server context cancels.
func (s *Server) worker() {
	for {
		select {
		case <-s.ctx.Done():
			return
		case id := <-s.queue:
			s.execute(id)
		}
	}
}

// execute runs one job end to end, persisting each state transition.
func (s *Server) execute(id string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.Status != StatusQueued {
		// Cancelled while queued, or stale entry.
		s.mu.Unlock()
		return
	}
	jctx, jcancel := context.WithCancel(s.ctx)
	if s.opts.JobTimeout > 0 {
		// Per-job deadline: a hung or poison job is interrupted at its
		// next cancellation point instead of pinning this worker forever.
		jctx, jcancel = context.WithTimeout(jctx, s.opts.JobTimeout)
	}
	j.Status = StatusRunning
	j.Attempts++
	s.cancels[id] = jcancel
	// The runner reads a copy; the record stays handler-owned.
	work := &Job{ID: j.ID, Spec: j.Spec, NetlistSHA: j.NetlistSHA, ckpt: j.ckpt}
	s.commit(j)
	s.mu.Unlock()
	defer jcancel()

	started := time.Now()
	result, err := s.runSafely(jctx, work, func(done, total int) {
		p := Progress{Done: done, Total: total}
		s.mu.Lock()
		j.Progress = p
		s.mu.Unlock()
		if s.progressHook != nil {
			s.progressHook(id, p)
		}
	})

	elapsed := time.Since(started)
	timedOut := errors.Is(jctx.Err(), context.DeadlineExceeded)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.cancels, id)
	j.ServiceMs = float64(elapsed.Microseconds()) / 1000
	switch {
	case err == errPartial && s.draining:
		// Daemon shutdown mid-campaign: the wave checkpoint is on disk,
		// requeue so a restarted daemon resumes to the identical report.
		j.Status = StatusQueued
	case err != nil && timedOut:
		// Deadline hit: campaigns flushed a checkpoint, so a retry picks
		// up the completed prefix. The attempt counter bounds how often —
		// a job that can never finish lands in failed with the reason.
		s.requeueOrFail(j, fmt.Sprintf("fleet: job deadline %s exceeded (attempt %d/%d)",
			s.opts.JobTimeout, j.Attempts, s.opts.MaxAttempts))
	case err == errPartial:
		// User cancel: record the partial report for inspection.
		j.Status = StatusCancelled
		j.Result = result
	case err != nil && jctx.Err() != nil && s.draining:
		// Interrupted non-campaign work has no partial value; requeue.
		j.Status = StatusQueued
	case err != nil && jctx.Err() != nil:
		j.Status = StatusCancelled
	case err != nil:
		j.Status = StatusFailed
		j.Error = err.Error()
	default:
		j.Status = StatusDone
		j.Result = result
		if j.Progress.Total > 0 {
			j.Progress.Done = j.Progress.Total
		}
	}
	s.commit(j)
}

// commit persists j's current state and, once that state is terminal,
// wakes the job's ?wait= handlers. Every transition of a live job goes
// through here, and a terminal job never transitions again, so done is
// closed exactly once. Caller holds s.mu.
func (s *Server) commit(j *Job) {
	_ = saveJob(s.fs, s.opts.Dir, j)
	if j.terminal() {
		close(j.done)
	}
}

// runSafely wraps the runner so a panicking job degrades to a failed
// record instead of killing the whole daemon: one poison submission
// must never take the fleet down with it.
func (s *Server) runSafely(ctx context.Context, j *Job, onProgress func(done, total int)) (result json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, fmt.Errorf("fleet: job panicked: %v", r)
		}
	}()
	return s.runner.run(ctx, j, onProgress)
}

// requeueOrFail puts an interrupted job back on the live queue, or
// fails it with reason once its attempt budget is spent. Caller holds
// s.mu.
func (s *Server) requeueOrFail(j *Job, reason string) {
	if j.Attempts >= s.opts.MaxAttempts {
		j.Status = StatusFailed
		j.Error = reason
		return
	}
	select {
	case s.queue <- j.ID:
		j.Status = StatusQueued
	default:
		j.Status = StatusFailed
		j.Error = reason + " (and requeue rejected: queue full)"
	}
}

// specHash is the content address of a job's spec — what a SubmitKey
// binds to. The key itself is excluded (it names the submission
// attempt, not the work), so a replayed key provably carries identical
// work; the netlist is represented by its hash.
func specHash(j *Job) string {
	c := j.Spec
	c.SubmitKey, c.Verilog = "", j.NetlistSHA
	data, _ := json.Marshal(&c)
	return store.HashBytes(data)
}

// Submit validates and enqueues a spec, returning the new job record.
// A spec carrying a SubmitKey the server has seen before is an
// idempotent resend (a client retry after a lost response): the
// already-accepted job is returned instead of a duplicate — after
// verifying the spec's content hash matches, so a colliding key can
// never hand back someone else's work.
//
// A sweep's netlist is resolved before the server lock is taken (see
// source), so a hash the daemon does not hold costs neither a job ID
// nor a store probe.
func (s *Server) Submit(spec Spec) (*Job, error) {
	spec.fill()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	j := &Job{Spec: spec, Status: StatusQueued, done: make(chan struct{})}
	if spec.Kind == KindSweep {
		if err := s.source(j); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prior, ok := s.jobs[s.byKey[spec.SubmitKey]]; ok { // byKey never holds the empty key
		if specHash(prior) != specHash(j) {
			return nil, fmt.Errorf("fleet: submit key %q already bound to different work (job %s)",
				spec.SubmitKey, prior.ID)
		}
		return snapshot(prior), nil
	}
	if s.closed {
		return nil, errClosed
	}
	s.seq++
	j.ID = fmt.Sprintf("j%06d", s.seq)
	j.CacheHit = s.store.Contains(probeKey(j))
	if spec.Kind == KindCampaign {
		j.Progress.Total = CampaignTotal(spec.PerClass)
	}
	j.ckpt = ckptPath(s.opts.Dir, j.ID)
	if err := saveJob(s.fs, s.opts.Dir, j); err != nil {
		return nil, err
	}
	select {
	case s.queue <- j.ID:
	default:
		return nil, errQueueFull
	}
	s.jobs[j.ID] = j
	if spec.SubmitKey != "" {
		s.byKey[spec.SubmitKey] = j.ID
	}
	return snapshot(j), nil
}

// source resolves a sweep's hash to the source held under it, or its
// inline source to a hash, made durable before any record names it. The
// spec keeps no hash, so the record is the one an inline submission writes.
func (s *Server) source(j *Job) (err error) {
	h, src := j.Spec.NetlistSHA, j.Spec.Verilog
	j.Spec.NetlistSHA, j.NetlistSHA = "", h
	if src == "" {
		if j.Spec.Verilog, err = s.netlists.get(h); err != nil {
			s.unknown.Add(1)
			return fmt.Errorf("%w %s", errNetlistUnknown, h)
		}
		s.byHash.Add(1)
		return nil
	}
	s.inline.Add(1)
	if j.NetlistSHA = netlistSHA(src); h != "" && h != j.NetlistSHA {
		return fmt.Errorf("fleet: netlist_sha256 %s is not the SHA-256 of the submitted verilog, %s", h, j.NetlistSHA)
	}
	j.Spec.Verilog, err = s.netlists.put(j.NetlistSHA, src)
	return err
}

// Cancel cancels a job: queued jobs are marked cancelled immediately,
// running jobs get their context cancelled (campaigns then flush a
// checkpoint and record a partial report). Done jobs are left alone.
func (s *Server) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, errNotFound
	}
	switch j.Status {
	case StatusQueued:
		j.Status = StatusCancelled
		s.commit(j)
	case StatusRunning:
		if c := s.cancels[id]; c != nil {
			c()
		}
	}
	return snapshot(j), nil
}

// Job returns a snapshot of one job record.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return snapshot(j), true
}

// Jobs returns snapshots of every job, sorted by ID.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, snapshot(j))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Metrics is the /metrics payload: the shared store's counters, the
// job census, how sweeps named their netlists, and the records
// quarantined at the last startup (silent corruption made loud —
// detected, moved aside, reported — while the daemon keeps serving).
type Metrics struct {
	Store       store.Stats    `json:"store"`
	Jobs        map[string]int `json:"jobs"`
	Netlists    NetlistCounts  `json:"netlists"`
	Quarantined []string       `json:"quarantined,omitempty"`
}

// NetlistCounts counts sweep submissions by how they named their netlist.
type NetlistCounts struct {
	ByHash  int64 `json:"by_hash"`
	Unknown int64 `json:"unknown"`
	Inline  int64 `json:"inline"`
}

// MetricsSnapshot assembles the current Metrics.
func (s *Server) MetricsSnapshot() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{Store: s.store.Stats(), Jobs: make(map[string]int), Quarantined: s.quarantined,
		Netlists: NetlistCounts{ByHash: s.byHash.Load(), Unknown: s.unknown.Load(), Inline: s.inline.Load()}}
	for _, j := range s.jobs {
		m.Jobs[j.Status]++
	}
	return m
}

// Store exposes the shared artifact store (the load-test harness reads
// its counters directly).
func (s *Server) Store() *store.Store { return s.store }

// Shutdown stops accepting submissions, cancels running jobs (campaigns
// flush their current checkpoint wave and are requeued on disk), and
// waits for the workers to drain, bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ReleaseWaiters()
	s.mu.Lock()
	s.closed = true
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	done := make(chan struct{})
	go func() { s.workers.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// Workers are gone; any job still queued in memory stays queued on
	// disk for the next daemon instance.
	return nil
}

// ReleaseWaiters makes every handler parked in GET /jobs/{id}?wait=
// answer at once with the job's current record, and later waits not
// park. Shutdown calls it; an embedder that shuts its http.Server down
// first registers it there (RegisterOnShutdown), or that shutdown would
// sit out the parked requests' timeouts.
func (s *Server) ReleaseWaiters() { s.release() }

// maxWait caps how long one GET /jobs/{id}?wait= request may park.
const maxWait = 30 * time.Second

// parseWait reads the wait query parameter: absent means no wait, and
// anything that is not a non-negative duration is the client's error.
func parseWait(q string) (time.Duration, error) {
	d, err := time.ParseDuration(cmp.Or(q, "0s"))
	if err != nil || d < 0 {
		return 0, fmt.Errorf("fleet: wait must be a non-negative duration such as 20s, got %q", q)
	}
	return min(d, maxWait), nil
}

// snapshot deep-copies the fields handlers return, so records mutated
// by workers never race with encoding.
func snapshot(j *Job) *Job {
	c := *j
	return &c
}

// redact trims a snapshot down to what HTTP status views need: the
// result payload has its own endpoint, and echoing a submitted netlist
// source back on every poll would turn a thousand-waiter load test into
// a bandwidth benchmark.
func redact(j *Job) *Job {
	j.Result = nil
	j.Spec.Verilog = ""
	return j
}

var (
	errNotFound       = fmt.Errorf("fleet: no such job")
	errQueueFull      = fmt.Errorf("fleet: queue full (%d pending)", queueCap)
	errClosed         = fmt.Errorf("fleet: server is shutting down")
	errNetlistUnknown = errors.New("fleet: no verified netlist held under netlist_sha256")
)

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		// Cap the body BEFORE decoding: a multi-gigabyte "netlist" must
		// cost a 413, not the daemon's heap.
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
		var spec Spec
		body, err := io.ReadAll(r.Body)
		if err == nil {
			err = json.Unmarshal(body, &spec) // unlike a Decoder, fails on data after the value
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("fleet: submission exceeds %d bytes", tooBig.Limit))
				return
			}
			httpError(w, http.StatusBadRequest, err)
			return
		}
		j, err := s.Submit(spec)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, errNetlistUnknown) {
				code = http.StatusConflict
			} else if errors.Is(err, errQueueFull) || errors.Is(err, errClosed) {
				code = http.StatusServiceUnavailable
				// Transient overload: tell well-behaved clients when to
				// come back instead of letting them hammer the queue.
				w.Header().Set("Retry-After", "1")
			}
			httpError(w, code, err)
			return
		}
		writeJSON(w, http.StatusAccepted, redact(j))
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := s.Jobs()
		for i, j := range jobs {
			jobs[i] = redact(j)
		}
		writeJSON(w, http.StatusOK, jobs)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		wait, err := parseWait(r.URL.Query().Get("wait"))
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, errNotFound)
			return
		}
		if wait > 0 && !j.terminal() {
			// Park until the job finishes, the wait runs out, the client
			// goes away or the daemon drains, then answer with the record
			// as it stands.
			t := time.NewTimer(wait)
			select {
			case <-j.done:
			case <-t.C:
			case <-r.Context().Done():
			case <-s.released.Done():
			}
			t.Stop()
			j, _ = s.Job(j.ID)
		}
		writeJSON(w, http.StatusOK, redact(j))
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, errNotFound)
			return
		}
		if j.Result == nil {
			httpError(w, http.StatusConflict,
				fmt.Errorf("fleet: job %s is %s, no result yet", j.ID, j.Status))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(j.Result)
	})
	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, redact(j))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.MetricsSnapshot())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
