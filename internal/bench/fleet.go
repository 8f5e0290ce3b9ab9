package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aging"
	"repro/internal/cell"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/synth"
)

// countingFS measures the daemon's persistence at the public chaos.FS
// seam (fleet.Options.FS): operations, fsyncs and the time inside them,
// and bytes written — without editing internal/fleet.
type countingFS struct {
	chaos.FS
	ops, fsyncs, fsyncNs, writeBytes atomic.Int64
}

func (f *countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	f.ops.Add(1)
	f.writeBytes.Add(int64(len(data)))
	return f.FS.WriteFile(name, data, perm)
}
func (f *countingFS) ReadFile(name string) ([]byte, error) {
	f.ops.Add(1)
	return f.FS.ReadFile(name)
}
func (f *countingFS) ReadDir(name string) ([]os.DirEntry, error) {
	f.ops.Add(1)
	return f.FS.ReadDir(name)
}
func (f *countingFS) Rename(oldpath, newpath string) error {
	f.ops.Add(1)
	return f.FS.Rename(oldpath, newpath)
}
func (f *countingFS) Remove(name string) error {
	f.ops.Add(1)
	return f.FS.Remove(name)
}
func (f *countingFS) MkdirAll(name string, perm os.FileMode) error {
	f.ops.Add(1)
	return f.FS.MkdirAll(name, perm)
}
func (f *countingFS) sync(do func(string) error, name string) error {
	f.ops.Add(1)
	f.fsyncs.Add(1)
	t0 := time.Now()
	err := do(name)
	f.fsyncNs.Add(int64(time.Since(t0)))
	return err
}
func (f *countingFS) SyncFile(name string) error { return f.sync(f.FS.SyncFile, name) }
func (f *countingFS) SyncDir(name string) error  { return f.sync(f.FS.SyncDir, name) }

// reset zeroes the counters, so what the warm-up wrote is not counted.
func (f *countingFS) reset() {
	f.ops.Store(0)
	f.fsyncs.Store(0)
	f.fsyncNs.Store(0)
	f.writeBytes.Store(0)
}

// countingRT measures the clients' traffic at the public
// fleet.Client.HTTP seam: requests, POST bodies, and responses a retry
// policy would have retried.
type countingRT struct {
	next                                    http.RoundTripper
	requests, posts, postBytes, retryworthy atomic.Int64
}

func (c *countingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	if req.Method == http.MethodPost {
		c.posts.Add(1)
		c.postBytes.Add(req.ContentLength)
	}
	resp, err := c.next.RoundTrip(req)
	if err != nil || resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		c.retryworthy.Add(1)
	}
	return resp, err
}

func (c *countingRT) reset() {
	c.requests.Store(0)
	c.posts.Store(0)
	c.postBytes.Store(0)
	c.retryworthy.Store(0)
}

// fleetJob is one slot of the job population.
type fleetJob struct {
	Spec fleet.Spec
	Cold bool // a by-construction-cold sweep (unique module name)
}

const (
	fleetSPCycles  = 128
	populationJobs = 1200
)

// FleetPopulation returns the seeded job population: of every ten
// jobs eight are sweeps, one an ALU lift and one an ALU campaign with
// its own seed; every tenth sweep carries a uniquely renamed copy of
// hot[0] — cold by construction, so its four artifacts churn the store
// past capacity — and the rest cycle through the hot variants. The
// population is then shuffled by the seed. Its size is fixed, so a run
// that drains fewer jobs (Params.Jobs) sees a prefix of the same
// sequence and its first payloads digest the same.
func FleetPopulation(seed int64, hot []string) []fleetJob {
	jobs := make([]fleetJob, populationJobs)
	sweeps := 0
	for i := range jobs {
		switch i % 10 {
		case 8:
			jobs[i].Spec = fleet.Spec{Kind: fleet.KindLift, Unit: "ALU"}
		case 9:
			jobs[i].Spec = fleet.Spec{Kind: fleet.KindCampaign, Unit: "ALU", PerClass: 5,
				Seed: uint64(seed)*1_000_000 + uint64(i)}
		default:
			src := hot[sweeps%len(hot)]
			if sweeps%10 == 9 {
				jobs[i].Cold = true
				src = renameModule(hot[0], fmt.Sprintf("cold_%d_%d", seed, sweeps))
			}
			sweeps++
			jobs[i].Spec = fleet.Spec{Kind: fleet.KindSweep, Verilog: src, SPCycles: fleetSPCycles}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// renameModule suffixes the netlist's module name, which changes the
// content hash — and so every store key — while the structure, and the
// work per submission, stays what hot[0]'s is.
func renameModule(src, suffix string) string {
	rest := src[strings.Index(src, "module ")+len("module "):]
	name := rest[:strings.IndexAny(rest, " (\n")]
	return strings.ReplaceAll(src, name, name+"_"+suffix)
}

// hotNetlists generates the hot population: structurally distinct
// variants of about p.HotCells cells. The register count is the lever
// because one register adds a few percent of a lane where one lane
// would double the smallest core.
func hotNetlists(p Params) []string {
	hot := make([]string, p.HotVariants)
	for i := range hot {
		pl := synth.PipelineForCells(p.HotCells)
		pl.Regs += i
		hot[i] = pl.Build().Verilog()
	}
	return hot
}

// daemon is an in-process fleet server behind a loopback HTTP listener,
// with its state directory on the real filesystem so fsync is paid.
type daemon struct {
	srv    *fleet.Server
	hs     *http.Server
	served chan error
	base   string
	fs     *countingFS // nil unless counted
	rt     *countingRT // nil unless counted
}

func startDaemon(dir string, p Params, counted bool) (*daemon, error) {
	d := &daemon{served: make(chan error, 1)}
	opts := fleet.Options{Dir: dir, Workers: p.Workers, Parallelism: 1}
	if counted {
		d.fs = &countingFS{FS: chaos.OS{}}
		opts.FS = d.fs
		d.rt = &countingRT{next: http.DefaultTransport}
	}
	srv, err := fleet.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.srv, d.base = srv, "http://"+ln.Addr().String()
	d.hs = &http.Server{Handler: srv.Handler()}
	srv.Start()
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// client returns a fleet client for one closed-loop submitter.
func (d *daemon) client() *fleet.Client {
	c := &fleet.Client{Base: d.base}
	if d.rt != nil {
		c.HTTP = &http.Client{Transport: d.rt}
	}
	return c
}

// stop shuts the listener and the workers down and waits for both.
func (d *daemon) stop(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// jobRecord is what a client saw of one job.
type jobRecord struct {
	index                      int // position in the population
	job                        fleetJob
	cacheHit                   bool
	submitMs, waitMs, resultMs float64
	serviceMs                  float64
	status, errText            string
	result                     []byte
}

func (r *jobRecord) totalMs() float64 { return r.submitMs + r.waitMs + r.resultMs }

// roundTrip submits one job and waits for its result the way a fleet
// submitter does: Submit, poll with Wait, fetch the payload.
func roundTrip(ctx context.Context, c *fleet.Client, tr *Tracer, root int, job fleetJob) jobRecord {
	rec := jobRecord{job: job}
	span := tr.Start("fleet.job", root)
	defer tr.End(span)
	ms := func(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

	t0 := time.Now()
	s := tr.Start("fleet.submit", span)
	j, err := c.Submit(ctx, job.Spec)
	tr.End(s)
	rec.submitMs = ms(t0)
	if err != nil {
		rec.status, rec.errText = "submit failed", err.Error()
		return rec
	}
	rec.cacheHit = j.CacheHit

	t0 = time.Now()
	s = tr.Start("fleet.wait", span)
	j, err = c.Wait(ctx, j.ID)
	tr.End(s)
	rec.waitMs = ms(t0)
	if err != nil {
		rec.status, rec.errText = "wait failed", err.Error()
		return rec
	}
	rec.status, rec.errText, rec.serviceMs = j.Status, j.Error, j.ServiceMs
	if j.Status != fleet.StatusDone {
		return rec
	}

	t0 = time.Now()
	s = tr.Start("fleet.result", span)
	rec.result, err = c.Result(ctx, j.ID)
	tr.End(s)
	rec.resultMs = ms(t0)
	if err != nil {
		rec.status, rec.errText = "result failed", err.Error()
	}
	return rec
}

// runFleet is fleet-mixed: after a warm-up that submits each hot
// netlist and one ALU lift once, p.Clients closed-loop clients (each
// waits for its reply before sending the next job) drain the seeded
// population for cfg.Seconds.
func runFleet(ctx context.Context, cfg ChildConfig) (*ChildReport, error) {
	rep := newChildReport()
	p := cfg.Params

	t0 := time.Now()
	hot := hotNetlists(p)
	d, err := startDaemon(filepath.Join(cfg.Dir, fmt.Sprintf("fleet-traced-%v", cfg.Trace)), p, cfg.Trace)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := d.stop(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "bench: fleet daemon shutdown:", err)
		}
	}()
	warm := d.client()
	for i := 0; i <= len(hot); i++ {
		job := fleetJob{Spec: fleet.Spec{Kind: fleet.KindLift, Unit: "ALU"}}
		if i < len(hot) {
			job.Spec = fleet.Spec{Kind: fleet.KindSweep, Verilog: hot[i], SPCycles: fleetSPCycles}
		}
		if rec := roundTrip(ctx, warm, nil, 0, job); rec.status != fleet.StatusDone {
			return nil, fmt.Errorf("bench: fleet warm-up job %d ended %s: %s", i, rec.status, rec.errText)
		}
	}
	rep.sample(MSetup, time.Since(t0).Seconds())

	var tr *Tracer
	if cfg.Trace {
		tr = NewTracer(cfg.Iter)
	}
	if cfg.Trace {
		d.fs.reset()
		d.rt.reset()
	}
	store0 := d.srv.Store().Stats()

	// The closed loop: every client takes the next job of the population
	// only after its previous one completed. The run drains a fixed
	// number of jobs, sized to take about RunSeconds, not a time budget:
	// the daemon keeps every job it has accepted, so a faster daemon
	// running for a fixed time would finish more jobs and read as a
	// peak_rss_mb regression. cfg.Seconds only bounds a run gone wrong.
	population := FleetPopulation(cfg.Seed, hot)
	population = population[:min(p.Jobs, len(population))]
	deadline := 3*cfg.Seconds + 5
	var next atomic.Int64
	records := make([][]jobRecord, p.Clients)
	start := time.Now()
	root := tr.Start(FleetMixed, 0)
	var wg sync.WaitGroup
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := d.client()
			for time.Since(start).Seconds() < deadline && ctx.Err() == nil {
				index := int(next.Add(1)) - 1
				if index >= len(population) {
					return
				}
				rec := roundTrip(ctx, client, tr, root, population[index])
				rec.index = index
				records[c] = append(records[c], rec)
			}
		}(c)
	}
	wg.Wait()
	tr.End(root)
	wall := time.Since(start).Seconds()

	var all []jobRecord
	for _, rs := range records {
		all = append(all, rs...)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("bench: fleet-mixed completed no job")
	}
	rep.Attempted = len(all)
	// Population order, not completion order: the first payload of each
	// kind, whose digest the golden file pins, is then a function of the
	// seed alone.
	sort.Slice(all, func(i, j int) bool { return all[i].index < all[j].index })

	// Oracles, off the clock: every payload must be byte-equal to the
	// direct library call for the same spec.
	oracle := newFleetOracle(ctx)
	var warmMs, coldMs, liftMs, campMs, svcWarm, svcCold, submitMs, waitMs, resultMs []float64
	for i := range all {
		r := &all[i]
		if r.status != fleet.StatusDone {
			rep.fail("job %d (%s) ended %s: %s", r.index, r.job.Spec.Kind, r.status, r.errText)
			continue
		}
		want, err := oracle.expect(r.job.Spec)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(r.result, want) {
			rep.fail("job %d (%s) result differs from the direct library call", r.index, r.job.Spec.Kind)
			continue
		}
		submitMs, waitMs, resultMs = append(submitMs, r.submitMs), append(waitMs, r.waitMs), append(resultMs, r.resultMs)
		switch {
		case r.job.Spec.Kind == fleet.KindLift:
			liftMs = append(liftMs, r.totalMs())
		case r.job.Spec.Kind == fleet.KindCampaign:
			campMs = append(campMs, r.totalMs())
		case r.job.Cold:
			coldMs, svcCold = append(coldMs, r.totalMs()), append(svcCold, r.serviceMs)
		case r.cacheHit:
			warmMs, svcWarm = append(warmMs, r.totalMs()), append(svcWarm, r.serviceMs)
		}
	}
	if len(warmMs) == 0 {
		rep.fail("no warm sweep completed")
	}
	for _, kind := range []string{fleet.KindSweep, fleet.KindLift, fleet.KindCampaign} {
		if d := oracle.first[kind]; d != "" {
			rep.Digests[kind] = d
		}
	}

	rep.sample(MOp, Median(warmMs)/1e3)
	rep.sample(MRate, float64(len(all))/wall)
	rep.sample("iter_s", wall/float64(len(all)))
	if tr == nil {
		return rep, nil
	}

	rep.Spans = tr.Spans()
	jobs := float64(len(all))
	L := rep.Layer
	L["fleet.jobs"] = jobs
	L["fleet.jobs_failed"] = float64(rep.Failed)
	L["fleet.submit_p50_ms"] = Median(submitMs)
	L["fleet.wait_p50_ms"] = Median(waitMs)
	L["fleet.result_p50_ms"] = Median(resultMs)
	L["fleet.service_warm_p50_ms"] = Median(svcWarm)
	L["fleet.service_cold_p50_ms"] = Median(svcCold)
	L["fleet.sweep_warm_tail_pct"], L["fleet.sweep_warm_tail_ms"] = TailPercentile(warmMs)
	L["fleet.sweep_cold_p50_ms"] = Median(coldMs)
	L["fleet.lift_p50_ms"] = Median(liftMs)
	L["fleet.campaign_p50_ms"] = Median(campMs)
	L["fleet.http_requests_per_job"] = float64(d.rt.requests.Load()) / jobs
	if posts := d.rt.posts.Load(); posts > 0 {
		L["fleet.submit_body_kb"] = float64(d.rt.postBytes.Load()) / float64(posts) / 1e3
	}
	L["fleet.retries"] = float64(d.rt.retryworthy.Load())
	L["chaos.fs_ops_per_job"] = float64(d.fs.ops.Load()) / jobs
	L["chaos.fsyncs_per_job"] = float64(d.fs.fsyncs.Load()) / jobs
	L["chaos.fsync_s"] = float64(d.fs.fsyncNs.Load()) / 1e9
	L["chaos.write_bytes_per_job"] = float64(d.fs.writeBytes.Load()) / jobs
	st := d.srv.Store().Stats()
	hits, builds, coalesced := st.Hits-store0.Hits, st.Builds-store0.Builds, st.Coalesced-store0.Coalesced
	L["store.hits"], L["store.builds"], L["store.coalesced"] = float64(hits), float64(builds), float64(coalesced)
	L["store.evictions"] = float64(st.Evictions - store0.Evictions)
	if total := hits + builds + coalesced; total > 0 {
		L["store.hit_share"] = float64(hits) / float64(total)
	}
	return rep, nil
}

// fleetOracle computes, by direct library calls that never touch the
// daemon, the payload each spec must produce, memoized by content.
type fleetOracle struct {
	ctx   context.Context
	alu   *core.Workflow
	memo  map[oracleKey][]byte
	first map[string]string // digest of the first payload of each kind
}

// oracleKey is what a payload depends on in this population: the kind,
// a sweep's netlist, a campaign's seed.
type oracleKey struct {
	kind, verilog string
	seed          uint64
}

func newFleetOracle(ctx context.Context) *fleetOracle {
	return &fleetOracle{ctx: ctx, memo: map[oracleKey][]byte{}, first: map[string]string{}}
}

func (o *fleetOracle) expect(sp fleet.Spec) ([]byte, error) {
	key := oracleKey{sp.Kind, sp.Verilog, sp.Seed}
	if data, ok := o.memo[key]; ok {
		return data, nil
	}
	if sp.Kind != fleet.KindSweep && o.alu == nil {
		o.alu = newWorkflow("ALU", nil)
		if _, err := o.alu.ErrorLifting(); err != nil {
			return nil, err
		}
	}
	var data []byte
	var err error
	switch sp.Kind {
	case fleet.KindSweep:
		data, err = directSweep(sp.Verilog, sp.SPCycles)
	case fleet.KindLift:
		data, err = json.Marshal(o.alu.Suite())
	case fleet.KindCampaign:
		rep, cerr := o.alu.InjectionCampaign(o.ctx, core.InjectOptions{Seed: sp.Seed, PerClass: sp.PerClass})
		if cerr != nil {
			return nil, cerr
		}
		data, err = rep.JSON()
	}
	if err != nil {
		return nil, err
	}
	o.memo[key] = data
	if o.first[sp.Kind] == "" {
		o.first[sp.Kind] = digest(data)
	}
	return data, nil
}

// directSweep is the library path of a sweep job with the spec
// defaults fleetd applies (margin 1.05, SP seed 0, the 4-point grid).
func directSweep(src string, spCycles int) ([]byte, error) {
	nl, err := netlist.ParseVerilog(src)
	if err != nil {
		return nil, err
	}
	lib := cell.Lib28()
	period := sta.CriticalDelay(nl, lib) * 1.05
	prof, err := core.RandomSP(nl, spCycles, 0, 1)
	if err != nil {
		return nil, err
	}
	results := sta.AnalyzeCorners(nl, sta.BatchConfig{PeriodPs: period, Base: lib, Model: aging.Default(),
		Profile: prof, PerEndpoint: 40, Parallelism: 1}, sweepCorners)
	out := fleet.SweepResult{Netlist: nl.Name, Cells: len(nl.Cells), PeriodPs: period}
	for i, res := range results {
		out.Points = append(out.Points, fleet.SweepPoint{
			Years: sweepCorners[i].Years, WNSSetup: res.WNSSetup, WNSHold: res.WNSHold,
			SetupViolations: res.NumSetupViolations, HoldViolations: res.NumHoldViolations,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}
