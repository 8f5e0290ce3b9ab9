// Package loadtest drives a fleetd instance with thousands of
// concurrent sweep submissions over a mixed hot/cold netlist population
// and reports the latency and cache-counter evidence behind
// BENCH_fleetd.json: warm-cache submissions (content hash already
// resident in the shared store) against cold-compile submissions
// (unique netlists that pay the full parse + characterize chain).
//
// The population is honest by construction: cold submissions are the
// base netlist with a uniquified module name, so their content hash —
// and therefore their compile work — is genuinely distinct; hot
// submissions repeat a small set of variants, so after each variant's
// first build every later submission rides the cache. The split in the
// report keys off the per-job CacheHit marker the daemon records at
// submit time, and latencies are the server-side service times, so
// client-side queueing cannot flatter (or smear) the curve.
package loadtest

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fleet"
	"repro/internal/par"
	"repro/internal/store"
	"repro/internal/synth"
)

// Config shapes one load-test run.
type Config struct {
	// Jobs is the total number of submissions (default 200).
	Jobs int
	// Concurrency is the number of concurrent submitting clients
	// (default 32). Each client submits and waits round-trip, so this
	// also bounds the daemon-side backlog.
	Concurrency int
	// HotVariants is the size of the hot netlist population (default 4);
	// ColdEvery makes every Nth submission a unique cold netlist
	// (0 selects the default 10, i.e. a 10% cold mix).
	HotVariants int
	ColdEvery   int
	// Cells is the approximate synthesized netlist size (default 2000).
	Cells int
	// SPCycles is the per-submission profile depth (default 128).
	SPCycles int
}

func (c *Config) fill() {
	if c.Jobs == 0 {
		c.Jobs = 200
	}
	if c.Concurrency == 0 {
		c.Concurrency = 32
	}
	if c.HotVariants == 0 {
		c.HotVariants = 4
	}
	if c.ColdEvery == 0 {
		c.ColdEvery = 10
	}
	if c.Cells == 0 {
		c.Cells = 2000
	}
	if c.SPCycles == 0 {
		c.SPCycles = 128
	}
}

// Latency summarizes one side of the warm/cold split, in milliseconds
// of server-side service time.
type Latency struct {
	Count  int     `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Report is the load-test outcome, serialized into BENCH_fleetd.json.
// The three latency buckets partition the run:
//
//   - Cold: by-construction unique netlists — every one pays the full
//     parse + characterize compile chain. The honest cold curve.
//   - Warm: hot-population submissions whose artifact chain was
//     resident at submit time (CacheHit) — pure cache-served analysis.
//   - FirstWave: hot-population submissions that arrived before their
//     variant finished building — the leader pays the compile, the
//     rest coalesce onto it (singleflight). Neither warm nor a full
//     compile, so reported separately rather than polluting either
//     curve.
type Report struct {
	Jobs        int     `json:"jobs"`
	Concurrency int     `json:"concurrency"`
	Cells       int     `json:"cells"`
	Warm        Latency `json:"warm"`
	Cold        Latency `json:"cold"`
	FirstWave   Latency `json:"first_wave"`
	// WarmColdP50Ratio is the headline: cold-compile p50 over
	// warm-cache p50.
	WarmColdP50Ratio float64     `json:"warm_cold_p50_ratio"`
	Store            store.Stats `json:"store"`
	// HitRate is Hits / (Hits + Coalesced + Builds) over the whole run.
	HitRate float64 `json:"hit_rate"`
}

// isCold reports whether slot i of the population carries a unique
// (never-seen) netlist; c must be filled.
func (c Config) isCold(i int) bool {
	return i%c.ColdEvery == c.ColdEvery-1
}

// Population returns the job mix: Jobs sweep specs over HotVariants
// recurring netlists with a unique cold netlist every ColdEvery-th
// slot. Deterministic in Config alone.
func Population(cfg Config) []fleet.Spec {
	cfg.fill()
	hot := make([]string, cfg.HotVariants)
	for i := range hot {
		// Structurally distinct variants: lane count perturbs the size a
		// little, which is fine — they are all "about Cells cells".
		p := synth.PipelineForCells(cfg.Cells)
		p.Lanes += i
		hot[i] = p.Build().Verilog()
	}
	specs := make([]fleet.Spec, cfg.Jobs)
	cold := 0
	for i := range specs {
		src := hot[i%len(hot)]
		if cfg.isCold(i) {
			// A unique module name gives a unique content hash: the
			// store has never seen it, so the full compile chain runs.
			cold++
			src = uniquify(hot[0], cold)
		}
		specs[i] = fleet.Spec{Kind: fleet.KindSweep, Verilog: src, SPCycles: cfg.SPCycles}
	}
	return specs
}

// uniquify renames the netlist's module so the source hashes cold while
// the structure (and so the per-submission work) stays representative.
func uniquify(src string, n int) string {
	name := moduleName(src)
	return strings.ReplaceAll(src, name, fmt.Sprintf("%s_cold%d", name, n))
}

func moduleName(src string) string {
	rest := src[strings.Index(src, "module ")+len("module "):]
	end := strings.IndexAny(rest, " (\n")
	return rest[:end]
}

// Run submits the population through c at cfg.Concurrency concurrent
// clients and assembles the report. st must be the daemon's own store
// (for the counters); pass nil to skip counter collection when driving
// a remote daemon.
func Run(ctx context.Context, cfg Config, c *fleet.Client, st *store.Store) (*Report, error) {
	cfg.fill()
	specs := Population(cfg)

	type outcome struct {
		warm      bool
		serviceMs float64
	}
	outcomes := make([]outcome, len(specs))
	err := par.ForEach(ctx, len(specs), cfg.Concurrency, func(ctx context.Context, i int) error {
		j, err := c.Submit(ctx, specs[i])
		if err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
		warm := j.CacheHit
		j, err = c.Wait(ctx, j.ID)
		if err != nil {
			return fmt.Errorf("wait %d: %w", i, err)
		}
		if j.Status != fleet.StatusDone {
			return fmt.Errorf("job %d finished %s: %s", i, j.Status, j.Error)
		}
		outcomes[i] = outcome{warm: warm, serviceMs: j.ServiceMs}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var warmMs, coldMs, firstMs []float64
	for i, o := range outcomes {
		switch {
		case cfg.isCold(i):
			coldMs = append(coldMs, o.serviceMs)
		case o.warm:
			warmMs = append(warmMs, o.serviceMs)
		default:
			firstMs = append(firstMs, o.serviceMs)
		}
	}
	rep := &Report{
		Jobs:        cfg.Jobs,
		Concurrency: cfg.Concurrency,
		Cells:       cfg.Cells,
		Warm:        summarize(warmMs),
		Cold:        summarize(coldMs),
		FirstWave:   summarize(firstMs),
	}
	if rep.Warm.P50Ms > 0 {
		rep.WarmColdP50Ratio = rep.Cold.P50Ms / rep.Warm.P50Ms
	}
	if st != nil {
		rep.Store = st.Stats()
		if total := rep.Store.Hits + rep.Store.Coalesced + rep.Store.Builds; total > 0 {
			rep.HitRate = float64(rep.Store.Hits) / float64(total)
		}
	}
	return rep, nil
}

// summarize computes the latency digest of one split.
func summarize(ms []float64) Latency {
	if len(ms) == 0 {
		return Latency{}
	}
	sort.Float64s(ms)
	var sum float64
	for _, v := range ms {
		sum += v
	}
	return Latency{
		Count:  len(ms),
		P50Ms:  percentile(ms, 50),
		P99Ms:  percentile(ms, 99),
		MeanMs: sum / float64(len(ms)),
		MaxMs:  ms[len(ms)-1],
	}
}

// percentile reads the p-th percentile from a sorted slice using the
// nearest-rank method.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}
