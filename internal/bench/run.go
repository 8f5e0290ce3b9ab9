package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// Options selects one workload run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is the budget of the untraced measuring phase.
	Seconds float64
	// Trace adds one traced pass after the untraced phase; its spans and
	// counts become the per-layer metrics.
	Trace  bool
	Params Params
	// Golden compares the run's digests against the pinned ones. It only
	// means something at DefaultParams.
	Golden bool
	// Spawn runs one child. Nil re-executes this binary as
	// `<exe> child`, which is what keeps process-global caches cold for
	// the per-process workloads; the tier-1 smoke test runs children in
	// process instead.
	Spawn SpawnFunc
}

// SpawnFunc runs one child to completion and returns its report and its
// peak resident set in MB.
type SpawnFunc func(ctx context.Context, cfg ChildConfig) (rep *ChildReport, peakRSSMB float64, err error)

// RunChild executes one child's work in this process. start is the
// process start for the per-process workloads.
func RunChild(ctx context.Context, cfg ChildConfig, start time.Time) (*ChildReport, error) {
	var rep *ChildReport
	var err error
	switch cfg.Workload {
	case "noop": // set-up probe: measures spawn -> main and nothing else
		rep = newChildReport()
	case LiftFPU:
		rep, err = runLift(cfg, start)
	case ScreenFPU:
		rep, err = runScreen(ctx, cfg)
	case Scale1M:
		rep, err = runScale(cfg)
	case FleetMixed:
		rep, err = runFleet(ctx, cfg)
	default:
		err = fmt.Errorf("bench: unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return nil, err
	}
	rep.StartUnixNano = start.UnixNano()
	return rep, nil
}

// InProcess is the SpawnFunc of the smoke test.
func InProcess(ctx context.Context, cfg ChildConfig) (*ChildReport, float64, error) {
	rep, err := RunChild(ctx, cfg, time.Now())
	return rep, selfPeakRSSMB(), err
}

// execSelf is the default SpawnFunc: a fresh process of this binary,
// configured on stdin, reporting on stdout.
func execSelf(ctx context.Context, cfg ChildConfig) (*ChildReport, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	in, err := json.Marshal(cfg)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "child")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // starts the child and waits until it has ended
	if err != nil {
		return nil, 0, fmt.Errorf("bench: %s child: %w", cfg.Workload, err)
	}
	rep := new(ChildReport)
	if err := json.Unmarshal(out, rep); err != nil {
		return nil, 0, fmt.Errorf("bench: %s child report: %w", cfg.Workload, err)
	}
	return rep, peakRSSMB(cmd.ProcessState), nil
}

// perProcess reports whether every iteration of the workload runs in a
// fresh child: a CLI user pays cold process-global caches on every run,
// and in-process repeats are non-stationary because the pointer-keyed
// engine and timing-graph caches pin every netlist they have seen.
func perProcess(workload string) bool { return workload == LiftFPU || workload == Scale1M }

// setupRepeats is how many times a cheap set-up is repeated so that
// setup_s is a median, not one reading.
const setupRepeats = 4

// Run measures one workload: set-up, an untraced phase of about
// o.Seconds whose samples become the end-to-end metrics, and with
// o.Trace one traced pass for the per-layer metrics. Every child's
// digests must agree with every other's, and with the golden file.
func Run(ctx context.Context, o Options) (*WorkloadResult, error) {
	spawn := o.Spawn
	if spawn == nil {
		spawn = execSelf
	}
	// The scratch directory lives inside the working directory: the
	// benchmark reads and writes only inside its checkout, and the fleet
	// state must sit on the checkout's real filesystem.
	dir, err := os.MkdirTemp(".", ".vega-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}

	res := &WorkloadResult{
		Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds,
		Load:     "sequential: one operation at a time, Parallelism 1",
		EndToEnd: map[string]Summary{}, Digests: map[string]string{},
	}
	if o.Workload == FleetMixed {
		res.Load = fmt.Sprintf("closed loop x %d clients against %d workers", o.Params.Clients, o.Params.Workers)
	}
	load1 := loadAvg1()
	samples := map[string][]float64{}
	layer := map[string]float64{}

	// child runs one child and folds its report into the result.
	child := func(workload string, trace bool, iter int, seconds float64) (*ChildReport, error) {
		cfg := ChildConfig{Workload: workload, Seed: o.Seed, Seconds: seconds, Trace: trace, Iter: iter, Dir: dir, Params: o.Params}
		launched := time.Now()
		rep, rss, err := spawn(ctx, cfg)
		if err != nil {
			return nil, err
		}
		if !trace { // end-to-end metrics come from untraced children only
			for _, name := range []string{MSetup, MOp, MRate, "iter_s"} {
				samples[name] = append(samples[name], rep.Samples[name]...)
			}
			if o.Workload == LiftFPU {
				// lift-fpu has no set-up stage to time, so its set-up is
				// what precedes main: process launch, runtime and package
				// initialisation.
				samples[MSetup] = append(samples[MSetup], time.Duration(rep.StartUnixNano-launched.UnixNano()).Seconds())
			}
			if workload != "noop" {
				samples[MPeakRSS] = append(samples[MPeakRSS], rss)
			}
		}
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		res.Failures = append(res.Failures, rep.Failures...)
		for k, d := range rep.Digests {
			if prev, ok := res.Digests[k]; ok && prev != d {
				res.Failed++
				res.Failures = append(res.Failures, fmt.Sprintf("iteration %d disagrees on %s: %s vs %s", iter, k, d, prev))
			}
			res.Digests[k] = d
		}
		return rep, nil
	}

	// Parent-side set-up.
	switch o.Workload {
	case Scale1M:
		var gen, exp []float64
		// One more repetition runs first and is not sampled: it pays for
		// the parent's heap growth, which is the harness's, not the
		// program's.
		for i := 0; i <= setupRepeats+2; i++ {
			g, e, err := scaleSetup(dir, o.Params)
			if err != nil {
				return nil, err
			}
			gen, exp = append(gen, g), append(exp, e)
			samples[MSetup] = append(samples[MSetup], g+e)
		}
		layer["synth.generate_s"], layer["netlist.export_s"] = Median(gen[1:]), Median(exp[1:])
		samples[MSetup] = samples[MSetup][1:]
	}

	// Untraced phase.
	iters := 1
	if perProcess(o.Workload) {
		iters = 0
		err = budgetLoop(o.Seconds, func(i int) error {
			iters++
			if _, err := child(o.Workload, false, i, 0); err != nil {
				return err
			}
			// lift-fpu's set-up is spawn -> main; no-op children right
			// after each lift add samples of it while the CPU is as warm
			// as it is for the lifts themselves (spawns out of an idle
			// parent read twice as slow).
			for k := 0; o.Workload == LiftFPU && k < setupRepeats; k++ {
				if _, err := child("noop", false, i, 0); err != nil {
					return err
				}
			}
			return nil
		})
	} else {
		_, err = child(o.Workload, false, 0, o.Seconds)
	}
	if err != nil {
		return nil, err
	}
	for _, d := range EndToEnd {
		res.EndToEnd[d.Name] = Summarize(samples[d.Name])
	}

	// Traced pass.
	if o.Trace {
		rep, err := child(o.Workload, true, iters, o.Seconds)
		if err != nil {
			return nil, err
		}
		for k, v := range rep.Layer {
			layer[k] = v
		}
		if base := Median(samples["iter_s"]); base > 0 && len(rep.Samples["iter_s"]) > 0 {
			layer["bench.trace_overhead_share"] = rep.Samples["iter_s"][0]/base - 1
		}
		layer["bench.unattributed_share"] = UnattributedShare(rep.Spans)
		layer["bench.loadavg1"] = load1
		res.PerLayer = layer
		res.Spans = rep.Spans
	}

	if o.Golden {
		if err := checkGolden(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// metricValue is one entry of the contract line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ContractLine renders the result as the one JSON object the benchmark
// driver reads from the last line of standard output: the end-to-end
// medians for an untraced run, every per-layer metric for a traced one.
func (w *WorkloadResult) ContractLine(trace bool) ([]byte, error) {
	metrics := map[string]metricValue{}
	if trace {
		for _, d := range PerLayer {
			v := w.PerLayer[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			metrics[d.Name] = metricValue{v, d.Unit}
		}
	} else {
		for _, d := range EndToEnd {
			metrics[d.Name] = metricValue{w.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{w.Correct(), max(w.Attempted, 1), w.Failed, metrics})
}

// Text renders every metric by name with its unit, one per line.
func (w *WorkloadResult) Text() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "workload %s  seed %d  load: %s\n", w.Workload, w.Seed, w.Load)
	for _, d := range EndToEnd {
		s := w.EndToEnd[d.Name]
		fmt.Fprintf(&b, "  %-34s %14.6g %-6s median of %d (q1 %.6g, q3 %.6g; %s is better, bound %.0f%%)\n",
			d.Name, s.Median, d.Unit, s.N, s.Q1, s.Q3, d.Better, 100*d.Bound)
	}
	names := make([]string, 0, len(w.PerLayer))
	for k := range w.PerLayer {
		names = append(names, k)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range PerLayer {
		units[d.Name] = d.Unit
	}
	for _, k := range names {
		fmt.Fprintf(&b, "  %-34s %14.6g %s\n", k, w.PerLayer[k], units[k])
	}
	fmt.Fprintf(&b, "  attempted %d, failed %d\n", w.Attempted, w.Failed)
	for _, f := range w.Failures {
		fmt.Fprintf(&b, "  FAILED: %s\n", f)
	}
	return b.String()
}
