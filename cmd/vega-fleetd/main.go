// vega-fleetd is the fleet screening daemon: an HTTP/JSON service that
// accepts lift, sweep and injection-campaign submissions, shards them
// across a bounded worker pool, and shares one content-addressed
// compile cache across every job (see internal/fleet). Job state
// persists under -dir; a restarted daemon requeues interrupted work and
// resumes checkpointed campaigns to byte-identical reports.
//
// SIGINT/SIGTERM drain gracefully through the shared internal/sigctx
// path — running campaigns flush their current checkpoint wave and are
// requeued on disk — and the process exits with code 130. A second
// signal kills immediately.
//
// -loadtest switches to the benchmark harness instead of serving: an
// in-process daemon is driven with -jobs submissions at -concurrency
// concurrent clients over a mixed hot/cold netlist population, and the
// warm/cold latency split plus cache counters are written to -o (see
// internal/fleet/loadtest and BENCH_fleetd.json).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/fleet/loadtest"
	"repro/internal/sigctx"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	dir := flag.String("dir", "fleetd-state", "job-state directory (records + campaign checkpoints)")
	workers := flag.Int("workers", runtime.NumCPU(), "worker pool size")
	jobsFlag := flag.Int("j", 1, "per-job internal parallelism (results are identical at every setting)")
	cache := flag.Int("cache", 128, "shared artifact-store capacity")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job execution deadline (0 = none); expired jobs are retried up to -max-attempts")
	maxAttempts := flag.Int("max-attempts", 0, "execution attempts before a job fails as poison (0 = default 5)")
	maxBody := flag.Int64("max-body", 0, "POST /jobs body cap in bytes (0 = default 8 MiB); oversized submissions get 413")
	chaosPlan := flag.String("chaos", "", "TESTING ONLY: injected fault plan for the daemon's own I/O, e.g. \"crash@17,torn@5:12,flip@7:3\" (crash points exit the process)")

	loadMode := flag.Bool("loadtest", false, "run the load-test harness against an in-process daemon instead of serving")
	ltJobs := flag.Int("jobs", 3000, "loadtest: total submissions")
	ltConc := flag.Int("concurrency", 1000, "loadtest: concurrent submitting clients")
	ltCells := flag.Int("cells", 2000, "loadtest: approximate netlist size")
	ltOut := flag.String("o", "BENCH_fleetd.json", "loadtest: report output path")
	flag.Parse()

	opts := fleet.Options{Dir: *dir, Workers: *workers, Parallelism: *jobsFlag, CacheCap: *cache,
		JobTimeout: *jobTimeout, MaxAttempts: *maxAttempts, MaxBodyBytes: *maxBody}
	if *chaosPlan != "" {
		plan, err := chaos.ParsePlan(*chaosPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vega-fleetd:", err)
			os.Exit(2)
		}
		inj := chaos.NewInjected(chaos.OS{}, plan)
		inj.ExitOnCrash = true // a crash point kills the live daemon for real
		opts.FS = inj
		fmt.Fprintf(os.Stderr, "vega-fleetd: CHAOS MODE — fault plan %q armed on the state directory\n", plan.String())
	}
	if *loadMode {
		if err := runLoadtest(opts, *ltJobs, *ltConc, *ltCells, *ltOut); err != nil {
			fmt.Fprintln(os.Stderr, "vega-fleetd:", err)
			os.Exit(1)
		}
		return
	}
	if err := serve(*addr, opts); err != nil {
		fmt.Fprintln(os.Stderr, "vega-fleetd:", err)
		os.Exit(1)
	}
}

// serve runs the daemon until a signal, then drains: HTTP listener
// first (no new submissions, parked ?wait= requests answered at once),
// then the worker pool (campaigns flush checkpoints and requeue). Exits
// 130 via sigctx convention.
func serve(addr string, opts fleet.Options) error {
	s, err := fleet.New(opts)
	if err != nil {
		return err
	}
	s.Start()
	// Slowloris and dead-peer protection: a client that trickles its
	// headers, never finishes its body, or parks an idle connection must
	// not pin a daemon file descriptor forever.
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	// Clients parked in GET /jobs/{id}?wait= hold active connections, and
	// httpSrv.Shutdown waits for those: release them as the drain starts.
	httpSrv.RegisterOnShutdown(s.ReleaseWaiters)

	ctx, stop := sigctx.Notify(context.Background())
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("vega-fleetd: serving on %s (workers %d, cache %d, state %s)\n",
		addr, opts.Workers, opts.CacheCap, opts.Dir)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("vega-fleetd: signal received — draining (second signal kills)")
	grace, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(grace)
	if err := s.Shutdown(grace); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("vega-fleetd: drained, interrupted jobs requeued on disk")
	os.Exit(sigctx.ExitInterrupted)
	return nil
}

// runLoadtest drives an in-process daemon over a real TCP listener and
// writes the report.
func runLoadtest(opts fleet.Options, jobs, concurrency, cells int, out string) error {
	opts.Dir = fmt.Sprintf("%s-loadtest", opts.Dir)
	if err := os.RemoveAll(opts.Dir); err != nil {
		return err
	}
	defer os.RemoveAll(opts.Dir)
	// The hot/cold population cycles through the cache; size the store
	// so the hot variants stay resident alongside the cold churn.
	s, err := fleet.New(opts)
	if err != nil {
		return err
	}
	s.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	defer s.Shutdown(context.Background())

	cfg := loadtest.Config{Jobs: jobs, Concurrency: concurrency, Cells: cells}
	c := &fleet.Client{Base: "http://" + ln.Addr().String()}
	fmt.Printf("vega-fleetd: loadtest %d jobs, %d concurrent clients, ~%d cells, %d workers\n",
		jobs, concurrency, cells, opts.Workers)
	start := time.Now()
	rep, err := loadtest.Run(context.Background(), cfg, c, s.Store())
	if err != nil {
		return err
	}
	wall := time.Since(start)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("loadtest: %d jobs in %s (%.0f jobs/s)\n", jobs, wall.Round(time.Millisecond),
		float64(jobs)/wall.Seconds())
	fmt.Printf("  warm: n=%d p50=%.2fms p99=%.2fms\n", rep.Warm.Count, rep.Warm.P50Ms, rep.Warm.P99Ms)
	fmt.Printf("  cold: n=%d p50=%.2fms p99=%.2fms\n", rep.Cold.Count, rep.Cold.P50Ms, rep.Cold.P99Ms)
	fmt.Printf("  first-wave: n=%d p50=%.2fms\n", rep.FirstWave.Count, rep.FirstWave.P50Ms)
	fmt.Printf("  cold/warm p50 ratio: %.1fx; store hit rate %.1f%% (builds %d, hits %d, coalesced %d, evictions %d)\n",
		rep.WarmColdP50Ratio, 100*rep.HitRate, rep.Store.Builds, rep.Store.Hits, rep.Store.Coalesced, rep.Store.Evictions)
	st := s.MetricsSnapshot().Starts
	fmt.Printf("  starts: %d direct, %d queued\n", st.Direct, st.Queued)
	fmt.Printf("report written to %s\n", out)
	return nil
}
