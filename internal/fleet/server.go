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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/lru"
	"repro/internal/par"
	"repro/internal/store"
)

// Options tunes a Server.
type Options struct {
	// Dir is the job-state directory (required). The job log, campaign
	// checkpoints and netlist blobs persist here; a daemon restarted on
	// the same directory requeues interrupted work.
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
	// FS is the filesystem seam all job-log, checkpoint and blob I/O goes
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
//
// s.mu guards memory only; no record is written while it is held. A
// transition is claimed under the lock, written with it released, and
// published under it again, and one goroutine at a time owns a job's
// next frame in the log: Submit until it hands the job on, the worker
// from its claim to a terminal state or a requeue, Cancel for a queued job.
type Server struct {
	opts                    Options
	store                   *store.Store
	runner                  *runner
	log                     *jobLog      // own lock; never read or appended to under mu
	netlists                *netlists    // own locks; never touched under mu
	byHash, unknown, inline atomic.Int64 // NetlistCounts
	direct, queued          atomic.Int64 // StartCounts
	writeErrors             atomic.Int64 // Metrics.RecordWriteErrors

	mu sync.Mutex
	// jobs holds the accepted jobs: each one's first record is durable.
	jobs    map[string]*Job
	cancels map[string]context.CancelFunc // running jobs only
	// quarantined lists the records copied into quarantine/ at startup
	// (file names) — served on /metrics so corruption is loud even
	// though it no longer stops the daemon.
	quarantined []string
	seq         int
	// queue holds the accepted jobs waiting for a worker, oldest first.
	// slots counts the places in it promised to jobs whose queued record
	// is being written; the two together stay within queueCap.
	queue []*Job
	slots int
	// idle counts the workers waiting on handoff that no job is on its
	// way to; outside a drain, the queue is empty while any is. A worker
	// counts itself in the critical section that publishes its last job,
	// so a client that sees a job finish and submits the next one finds
	// that worker idle.
	idle   int
	closed bool

	// handoff carries a job to an idle worker, sent with mu released: a
	// new one from Submit, whose running record is then its acceptance,
	// or one accepted queued while a worker went idle.
	handoff  chan *Job
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
// fast with 503 instead of blocking the HTTP handler. A variable so a
// test can fill the queue.
var queueCap = 8192

// New creates a server over opts.Dir, recovering persisted job state
// from the log (see loadJobs): done/failed/cancelled jobs are served
// as-is, queued jobs and running ones from an interrupted daemon are
// requeued (campaign jobs then resume from their checkpoint files), and
// corrupt records are quarantined instead of failing the start, as is a
// record whose netlist blob is missing or fails its envelope or SHA-256
// check. The log then takes the recovered state (see jobLog.recover),
// and the checkpoints of jobs that are terminal or gone are deleted. As
// at run time, a terminal job is kept as a header, and only a job that
// will run holds its source. Call Start to launch the workers.
func New(opts Options) (*Server, error) {
	opts.fill()
	if opts.Dir == "" {
		return nil, fmt.Errorf("fleet: Options.Dir is required")
	}
	blobs := &netlists{fs: opts.FS, dir: filepath.Join(opts.Dir, "netlists"), src: lru.New[string, string](heldSources)}
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
		log:      &jobLog{fs: opts.FS, path: filepath.Join(opts.Dir, logName)},
		netlists: blobs,
		jobs:     make(map[string]*Job),
		cancels:  make(map[string]context.CancelFunc),
		handoff:  make(chan *Job),
		ctx:      ctx,
		cancel:   cancel,
	}
	s.released, s.release = context.WithCancel(context.Background())
	rec, err := loadJobs(opts.FS, opts.Dir)
	if err != nil {
		cancel()
		return nil, err
	}
	// changed are the jobs whose state recovery moved (requeued or failed
	// by the fuse). checked holds how each distinct sweep hash's blob
	// verified, once per start.
	var changed []*Job
	checked := make(map[string]error)
	for _, j := range rec.jobs {
		if j.Spec.Kind == KindSweep {
			// A sweep's record names its source by hash. Without the hash
			// (the empty one names no blob) or with a blob that fails
			// verification, the record is as untrusted as a corrupt one. A
			// blob from newer tooling is presumed good: refuse to start.
			err, seen := checked[j.NetlistSHA]
			if !seen {
				_, err = blobs.get(j.NetlistSHA)
				checked[j.NetlistSHA] = err
			}
			if err == nil && !j.terminal() {
				j.Spec.Verilog, err = blobs.get(j.NetlistSHA)
			}
			if err != nil {
				if errors.Is(err, chaos.ErrNewerVersion) {
					cancel()
					return nil, fmt.Errorf("fleet: netlist blob of job %s: %w", j.ID, err)
				}
				f := rec.frames[j.ID]
				data, err := opts.FS.ReadAt(s.log.path, int64(f.off), f.n)
				if err == nil {
					err = rec.setAside(opts.FS, opts.Dir, data, f.off, j.ID)
				}
				if err != nil {
					cancel()
					return nil, err
				}
				continue
			}
		}
		j.ckpt = ckptPath(opts.Dir, j.ID)
		if !j.terminal() {
			was := j.Status
			if j.Attempts >= opts.MaxAttempts {
				// Poison-job fuse: a record that keeps getting requeued
				// (daemon crashed or timed out on it MaxAttempts times)
				// fails with a reason instead of crash-looping the fleet.
				j.Status, j.Spec.Verilog = StatusFailed, ""
				j.Error = fmt.Sprintf("fleet: requeue attempts exhausted (%d/%d) — poison job?",
					j.Attempts, opts.MaxAttempts)
			} else {
				j.Status = StatusQueued
				j.done = make(chan struct{})
				s.queue = append(s.queue, j)
			}
			if j.Status != was {
				changed = append(changed, j)
			}
		}
		s.jobs[j.ID] = j
	}
	if err := s.log.recover(rec, changed); err != nil {
		cancel()
		return nil, err
	}
	for _, j := range s.jobs {
		if j.terminal() {
			j.at = rec.frames[j.ID]
		}
	}
	// A checkpoint outlives its job only when a crash came between the
	// job's terminal frame and commit's remove, or when recovery set the
	// job aside.
	for _, id := range rec.ckpts {
		if j := s.jobs[id]; j == nil || j.terminal() {
			_ = opts.FS.Remove(ckptPath(opts.Dir, id))
		}
	}
	// seq stays ahead of every ID the log spells, loaded or set aside.
	s.quarantined, s.seq = rec.quarantined, rec.seq
	return s, nil
}

// Start launches the worker pool: par.ForEach with one task per worker
// slot, each running jobs until Shutdown. The pool IS the concurrency
// bound — jobs beyond Workers wait in the queue. Every worker has its
// first job, or is counted idle, when Start returns.
func (s *Server) Start() {
	s.mu.Lock()
	first := make([]*Job, s.opts.Workers)
	for i := range first {
		first[i] = s.next()
	}
	s.mu.Unlock()
	s.workers.Add(1)
	go func() {
		defer s.workers.Done()
		// Error-free by construction: worker loops return nil.
		_ = par.ForEach(context.Background(), s.opts.Workers, s.opts.Workers,
			func(_ context.Context, i int) error {
				s.worker(first[i])
				return nil
			})
	}()
}

// worker runs j, and then each job execute hands it, until it is left
// idle and the server context cancels.
func (s *Server) worker(j *Job) {
	for {
		if j == nil {
			select {
			case <-s.ctx.Done():
				return
			case j = <-s.handoff:
			}
		}
		j = s.execute(j)
	}
}

// next is a worker's next job: the oldest queued one, or none, the
// worker then counted idle. A draining server starts nothing from the
// queue; those jobs stay queued on disk for the next daemon. Caller
// holds s.mu.
func (s *Server) next() *Job {
	if !s.draining && len(s.queue) > 0 {
		j := s.queue[0]
		s.queue[0], s.queue = nil, s.queue[1:]
		return j
	}
	s.idle++
	return nil
}

// execute runs one job end to end, persisting each state transition,
// and returns the worker's next job (see next).
func (s *Server) execute(j *Job) *Job {
	s.mu.Lock()
	if j.Status != StatusQueued || j.cancelling {
		// Cancelled while queued.
		defer s.mu.Unlock()
		return s.next()
	}
	// A job that is not yet accepted came straight from Submit: its
	// running record is its acceptance, so a failed write refuses it.
	direct := s.jobs[j.ID] != j
	jctx, jcancel := context.WithCancel(s.ctx)
	if s.opts.JobTimeout > 0 {
		// Per-job deadline: a hung or poison job is interrupted at its
		// next cancellation point instead of pinning this worker forever.
		jctx, jcancel = context.WithTimeout(jctx, s.opts.JobTimeout)
	}
	defer jcancel()
	j.Status = StatusRunning
	j.Attempts++
	s.cancels[j.ID] = jcancel
	// The runner reads a copy; the record stays handler-owned.
	work := &Job{ID: j.ID, Spec: j.Spec, NetlistSHA: j.NetlistSHA, ckpt: j.ckpt}
	s.mu.Unlock()

	// The run starts only once a record carrying its attempt is durable,
	// which is what lets the poison fuse count attempts across crashes.
	// Nothing else writes j until the run reports progress.
	_, err := s.save(j)
	s.mu.Lock()
	switch {
	case err != nil:
		delete(s.cancels, j.ID)
		if direct {
			s.refuse(j, err)
		} else {
			s.lost(j, err)
		}
		defer s.mu.Unlock()
		return s.next()
	case direct:
		s.accept(j)
		s.direct.Add(1)
	default:
		s.queued.Add(1)
	}
	s.mu.Unlock()

	started := time.Now()
	result, err := s.runSafely(jctx, work, func(done, total int) {
		p := Progress{Done: done, Total: total}
		s.mu.Lock()
		j.Progress = p
		s.mu.Unlock()
		if s.progressHook != nil {
			s.progressHook(j.ID, p)
		}
	})

	elapsed := time.Since(started)
	timedOut := errors.Is(jctx.Err(), context.DeadlineExceeded)
	s.mu.Lock()
	delete(s.cancels, j.ID)
	rec, requeue := *j, false
	rec.ServiceMs = float64(elapsed.Microseconds()) / 1000
	switch {
	case err == errPartial && s.draining:
		// Daemon shutdown mid-campaign: the wave checkpoint is on disk,
		// requeue so a restarted daemon resumes to the identical report.
		rec.Status = StatusQueued
	case err != nil && timedOut:
		// Deadline hit: campaigns flushed a checkpoint, so a retry picks
		// up the completed prefix. The attempt counter bounds how often —
		// a job that can never finish lands in failed with the reason.
		requeue = s.requeueOrFail(&rec, fmt.Sprintf("fleet: job deadline %s exceeded (attempt %d/%d)",
			s.opts.JobTimeout, rec.Attempts, s.opts.MaxAttempts))
	case err == errPartial:
		// User cancel: record the partial report for inspection.
		rec.Status = StatusCancelled
		rec.Result = result
	case err != nil && jctx.Err() != nil && s.draining:
		// Interrupted non-campaign work has no partial value; requeue.
		rec.Status = StatusQueued
	case err != nil && jctx.Err() != nil:
		rec.Status = StatusCancelled
	case err != nil:
		rec.Status = StatusFailed
		rec.Error = err.Error()
	default:
		rec.Status = StatusDone
		rec.Result = result
		if rec.Progress.Total > 0 {
			rec.Progress.Done = rec.Progress.Total
		}
	}
	s.mu.Unlock()
	s.commit(j, rec, requeue)
	defer s.mu.Unlock()
	return s.next()
}

// commit writes rec, the state the owner of the accepted job j's record
// claimed for it, with the lock released, then publishes it and returns
// holding s.mu. A terminal state closes done, so a client never sees
// one that is not on disk, and is published as a header (see Job.at); a
// requeue takes the queue place
// requeueOrFail promised, which the requeueing worker looks at next; a
// write the disk refuses fails the job in memory only (lost). A
// campaign's checkpoint is removed, best-effort, once its terminal frame
// is durable and before the job is published.
func (s *Server) commit(j *Job, rec Job, requeue bool) {
	at, err := s.save(&rec)
	if err == nil && rec.terminal() {
		if rec.Spec.Kind == KindCampaign {
			_ = s.opts.FS.Remove(rec.ckpt) // a crash before it leaves the file to New
		}
		// From here on the frame holds the result and the blob the source.
		rec.at, rec.Result, rec.Spec.Verilog = at, nil, ""
	}
	s.mu.Lock()
	if requeue {
		s.slots--
	}
	switch {
	case err != nil:
		s.lost(j, err)
	case requeue:
		*j = rec
		s.queue = append(s.queue, j)
	default:
		*j = rec
		if j.terminal() {
			close(j.done)
		}
	}
}

// claimIdle counts one idle worker out of idle, if there is one, for
// the caller to hand a job to. Caller holds s.mu.
func (s *Server) claimIdle() bool {
	if s.idle == 0 {
		return false
	}
	s.idle--
	return true
}

// handOff gives j to the idle worker the caller claimed, unless the
// drain took that worker first.
func (s *Server) handOff(j *Job) bool {
	select {
	case s.handoff <- j:
		return true
	case <-s.ctx.Done():
		return false
	}
}

// save appends j's record to the log and returns where it landed once
// it is durable, counting a failure for /metrics. The log cuts a failed
// frame back off, so a refused submission leaves nothing a restart
// would run.
func (s *Server) save(j *Job) (frame, error) {
	data, err := encodeJob(j)
	var at frame
	if err == nil {
		at, err = s.log.append(data)
	}
	if err == nil {
		return at, nil
	}
	s.writeErrors.Add(1)
	return frame{}, fmt.Errorf("%w: %w", errNotWritten, err)
}

// lost fails an accepted job whose transition the disk refused (err,
// from save). Its record still holds the last state written, so a
// restarted daemon picks the job up from there: this failed is the one
// terminal state that is not on disk, and a restart may supersede it.
// Caller holds s.mu.
func (s *Server) lost(j *Job, err error) {
	j.Status, j.Error, j.Spec.Verilog = StatusFailed, err.Error(), ""
	close(j.done)
}

// accept publishes a new job whose first record is durable and hands
// that record to the Submit waiting on it. Caller holds s.mu.
func (s *Server) accept(j *Job) {
	s.jobs[j.ID] = j
	j.adm.receipt = snapshot(j)
	close(j.adm.done)
	j.adm = nil // the receipt holds the source; Submit holds the receipt
}

// refuse drops a new job before acceptance. Caller holds s.mu.
func (s *Server) refuse(j *Job, err error) {
	j.adm.err = err
	close(j.adm.done)
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

// requeueOrFail decides what an interrupted job becomes: queued again,
// with a queue place promised to it (taken once its record is written), or
// failed with reason once its attempt budget is spent or the queue is
// full. Caller holds s.mu.
func (s *Server) requeueOrFail(j *Job, reason string) (requeue bool) {
	switch {
	case j.Attempts >= s.opts.MaxAttempts:
		j.Status, j.Error = StatusFailed, reason
	case !s.takeSlot():
		j.Status, j.Error = StatusFailed, reason+" (and requeue rejected: queue full)"
	default:
		j.Status = StatusQueued
		return true
	}
	return false
}

// takeSlot promises a queue place, if one is free. Caller holds s.mu.
func (s *Server) takeSlot() bool {
	if len(s.queue)+s.slots >= queueCap {
		return false
	}
	s.slots++
	return true
}

// Submit validates and accepts a spec, returning the accepted record:
// a new job is offered to an idle worker first, whose running record is
// the acceptance, and only a job that has to wait is written queued and
// put on the queue. Either way the record is durable before Submit
// returns, and a submission that is refused leaves none.
//
// Every accepted submission is a job of its own: the daemon keeps no
// key that would fold a resend onto an earlier job.
//
// A sweep's netlist is resolved before the server lock is taken (see
// source), so a hash the daemon does not hold costs neither a job ID
// nor a store probe.
func (s *Server) Submit(spec Spec) (*Job, error) {
	spec.fill()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	j := &Job{Spec: spec, Status: StatusQueued, done: make(chan struct{}), adm: &admission{done: make(chan struct{})}}
	if spec.Kind == KindSweep {
		if err := s.source(j); err != nil {
			return nil, err
		}
	}
	if spec.Kind == KindCampaign {
		j.Progress.Total = CampaignTotal(spec.PerClass)
	}
	if err := s.reserve(j); err != nil {
		return nil, err
	}
	adm := j.adm // j itself is the worker's once it is accepted
	if !s.offer(j) {
		s.enqueue(j)
	}
	<-adm.done
	return adm.receipt, adm.err
}

// offer hands a new job to an idle worker, if there is one.
func (s *Server) offer(j *Job) bool {
	s.mu.Lock()
	idle := s.claimIdle()
	s.mu.Unlock()
	return idle && s.handOff(j)
}

// reserve gives j an ID, or refuses it once the server is closed.
func (s *Server) reserve(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	s.seq++
	j.ID = fmt.Sprintf("j%06d", s.seq)
	j.CacheHit = s.store.Contains(probeKey(j))
	j.ckpt = ckptPath(s.opts.Dir, j.ID)
	return nil
}

// enqueue accepts a new job no idle worker took: it promises the job a
// queue place, writes the queued record, and then publishes the job and
// queues it, or hands it to a worker that went idle meanwhile. A full
// queue refuses it before anything is written.
func (s *Server) enqueue(j *Job) {
	s.mu.Lock()
	if !s.takeSlot() {
		s.refuse(j, fmt.Errorf("%w (%d pending)", errQueueFull, queueCap))
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	_, err := s.save(j)
	s.mu.Lock()
	s.slots--
	idle := false
	switch {
	case err != nil:
		s.refuse(j, err)
	default:
		s.accept(j)
		if idle = s.claimIdle(); !idle {
			s.queue = append(s.queue, j)
		}
	}
	s.mu.Unlock()
	if idle {
		s.handOff(j) // a drain leaves it queued on disk for the next daemon
	}
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

// Cancel cancels a job: queued jobs are marked cancelled once that
// record is durable, running jobs get their context cancelled
// (campaigns then flush a checkpoint and record a partial report). Done
// jobs are left alone.
func (s *Server) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, errNotFound
	}
	if c := s.cancels[id]; c != nil {
		c()
	}
	if j.Status != StatusQueued || j.cancelling {
		defer s.mu.Unlock()
		return snapshot(j), nil
	}
	j.cancelling = true // a worker that dequeues it now skips it
	rec := *j
	rec.Status = StatusCancelled
	s.mu.Unlock()
	s.commit(j, rec, false)
	defer s.mu.Unlock()
	return snapshot(j), nil
}

// Job returns job id's full record: a snapshot of its header with the
// result read back from its terminal frame in the log and a sweep's
// source from its blob, both outside the server lock. A job that does
// not exist is errNotFound; a frame or blob that cannot be read or does
// not verify is an error too, and never other bytes.
func (s *Server) Job(id string) (*Job, error) {
	j, ok := s.header(id)
	if !ok {
		return nil, errNotFound
	}
	var err error
	j.Result, err = s.log.result(j)
	if err == nil && j.Spec.Kind == KindSweep && j.Spec.Verilog == "" {
		j.Spec.Verilog, err = s.netlists.get(j.NetlistSHA)
	}
	if err != nil {
		return nil, err
	}
	return j, nil
}

// header returns a snapshot of job id's record as memory holds it: for
// a terminal job, without its result or source.
func (s *Server) header(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return snapshot(j), true
}

// Jobs returns the headers of every job, in ID order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, snapshot(j))
	}
	sort.Slice(out, func(a, b int) bool { return idLess(out[a].ID, out[b].ID) })
	return out
}

// Metrics is the /metrics payload: the shared store's counters, the
// job census, how sweeps named their netlists, and the records
// quarantined at the last startup (silent corruption made loud —
// detected, moved aside, reported — while the daemon keeps serving).
type Metrics struct {
	Store  store.Stats    `json:"store"`
	Jobs   map[string]int `json:"jobs"`
	Starts StartCounts    `json:"starts"`
	// RecordWriteErrors counts job-record writes the disk refused since
	// start: each one refused a submission or failed a job.
	RecordWriteErrors int64         `json:"record_write_errors"`
	Netlists          NetlistCounts `json:"netlists"`
	Quarantined       []string      `json:"quarantined,omitempty"`
}

// StartCounts counts runs by how they reached a worker: straight from
// Submit to an idle one, or through the queue (a job that had to wait,
// a retry, or one recovered at startup).
type StartCounts struct {
	Direct int64 `json:"direct"`
	Queued int64 `json:"queued"`
}

// NetlistCounts counts sweep submissions by how they named their
// netlist, and Held the sources the daemon keeps in memory (at most
// heldSources).
type NetlistCounts struct {
	ByHash  int64 `json:"by_hash"`
	Unknown int64 `json:"unknown"`
	Inline  int64 `json:"inline"`
	Held    int   `json:"held"`
}

// MetricsSnapshot assembles the current Metrics.
func (s *Server) MetricsSnapshot() Metrics {
	held := s.netlists.src.Stats().Len
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{Store: s.store.Stats(), Jobs: make(map[string]int), Quarantined: s.quarantined,
		Starts:            StartCounts{Direct: s.direct.Load(), Queued: s.queued.Load()},
		RecordWriteErrors: s.writeErrors.Load(),
		Netlists:          NetlistCounts{ByHash: s.byHash.Load(), Unknown: s.unknown.Load(), Inline: s.inline.Load(), Held: held}}
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

// snapshot copies a record, so handlers encode a copy workers do not
// write. The copy is shallow: the slices and strings it shares with the
// record are replaced, never written in place.
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
	errQueueFull      = errors.New("fleet: queue full")
	errClosed         = fmt.Errorf("fleet: server is shutting down")
	errNotWritten     = errors.New("fleet: job record not written")
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
			} else if errors.Is(err, errQueueFull) || errors.Is(err, errClosed) || errors.Is(err, errNotWritten) {
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
		j, ok := s.header(r.PathValue("id"))
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
			j, _ = s.header(j.ID)
		}
		writeJSON(w, http.StatusOK, redact(j))
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.header(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, errNotFound)
			return
		}
		// The result is in the job's terminal frame, read and verified
		// outside the server lock; bytes that fail are never served.
		result, err := s.log.result(j)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		if result == nil {
			httpError(w, http.StatusConflict,
				fmt.Errorf("fleet: job %s is %s, no result yet", j.ID, j.Status))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
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
