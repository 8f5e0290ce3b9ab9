// vega runs the paper's three-phase workflow: alone, end to end for both
// units; as `vega <subcommand> [flags]`, one experiment of the evaluation
// (the commands table). SIGINT/SIGTERM stop a run at its next unit,
// configuration, pair or stage boundary through internal/sigctx: what
// completed is printed and the process exits 130; a second signal kills
// at once. An error exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/embench"
	"repro/internal/integrate"
	"repro/internal/lift"
	"repro/internal/report"
	"repro/internal/sigctx"
)

// commands is the dispatch table, in the order usage lists it.
var commands = []struct {
	name string
	run  func(ctx context.Context, args []string, out io.Writer) error
}{
	{"sta", runSTA},
	{"lift", runLift},
	{"quality", runQuality},
	{"overhead", runOverhead},
	{"aginglib", runAgingLib},
	{"failnets", runFailNets},
	{"inject", runInject},
	{"synth", runSynth},
}

func main() {
	ctx, stop := sigctx.Notify(context.Background())
	prog, err := dispatch(ctx, os.Args[1:], os.Stdout)
	interrupted := sigctx.Interrupted(ctx) // before stop(): stop cancels too
	stop()
	if errors.Is(err, flag.ErrHelp) {
		err = nil // -h: the flag set has printed its usage
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	}
	if interrupted {
		os.Exit(sigctx.ExitInterrupted)
	} else if err != nil {
		os.Exit(1)
	}
}

// dispatch runs the subcommand args[0] names, or the end-to-end workflow
// when args name none, and returns what it ran as "vega" or "vega NAME".
func dispatch(ctx context.Context, args []string, out io.Writer) (string, error) {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return "vega", runAll(ctx, args, out)
	}
	names := make([]string, len(commands))
	for i, c := range commands {
		if c.name == args[0] {
			return "vega " + c.name, c.run(ctx, args[1:], out)
		}
		names[i] = c.name
	}
	return "vega " + args[0], fmt.Errorf("unknown subcommand; usage: vega [%s] [flags]", strings.Join(names, "|"))
}

// units are the two execution units every paper experiment covers.
var units = []func(core.Config) *core.Workflow{core.NewALU, core.NewFPU}

// newFlags returns the flag set of the command name and the workflow
// configuration its shared flags fill: -j always, -years when the
// subcommand assumes a lifetime.
func newFlags(name string, years bool) (*flag.FlagSet, *core.Config) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	cfg := &core.Config{}
	fs.IntVar(&cfg.Parallelism, "j", 0, "worker parallelism (0 = all CPUs, 1 = sequential)")
	if years {
		fs.Float64Var(&cfg.Years, "years", 10, "assumed lifetime in years")
	}
	return fs, cfg
}

// unitByName returns the workflow constructor of the unit name names,
// in any case.
func unitByName(name string) (func(core.Config) *core.Workflow, error) {
	switch strings.ToUpper(name) {
	case "ALU":
		return core.NewALU, nil
	case "FPU":
		return core.NewFPU, nil
	}
	return nil, fmt.Errorf("unknown unit %q: want ALU or FPU", name)
}

// interrupted reports whether a first signal has arrived and, if so,
// tells out that the remaining work is skipped.
func interrupted(ctx context.Context, out io.Writer, remaining string) bool {
	if !sigctx.Interrupted(ctx) {
		return false
	}
	fmt.Fprintf(out, "interrupted — skipping remaining %s\n", remaining)
	return true
}

// timed runs the stage f and, when out is non-nil, prints its wall time
// and allocation delta under label. The GC runs first so TotalAlloc
// attributes bytes to this stage, not to a survivor of the previous one.
func timed(out io.Writer, label string, f func()) {
	if out == nil {
		f()
		return
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	fmt.Fprintf(out, "  %-26s %10.1f ms  %9.1f MiB allocated\n",
		label, float64(el.Microseconds())/1000,
		float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
}

// runAll runs the three phases end to end for both units and prints a
// summary of each: aging analysis, lifted suite, detection quality
// against emulated aged silicon, and a sample integration.
func runAll(ctx context.Context, args []string, out io.Writer) error {
	fs, cfg := newFlags("vega", true)
	mitigation := fs.Bool("mitigation", false, "enable the initial-value-dependency mitigation")
	budget := fs.Float64("budget", 0.01, "integration overhead budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.Lift.Mitigation = *mitigation

	var suites []*lift.Suite
	for _, mk := range units {
		if interrupted(ctx, out, "units") {
			return nil
		}
		w := mk(*cfg)
		fmt.Fprintf(out, "== %s ==\n", w.Describe())

		fmt.Fprintln(out, "phase 1: aging analysis (signal probability + aged STA)")
		res, err := w.AgingAnalysis()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  unit op density: %.4f ops/instruction over %d workload instructions\n",
			w.OpDensity, w.TotalInsts)
		fmt.Fprintf(out, "  aged WNS: setup %+.1fps (%d violating paths), hold %+.1fps (%d)\n",
			res.WNSSetup, res.NumSetupViolations, res.WNSHold, res.NumHoldViolations)
		fmt.Fprintf(out, "  unique aging-prone pairs: %d\n", len(res.Pairs))

		fmt.Fprintln(out, "phase 2: error lifting (failure models + BMC + instruction construction)")
		if _, err := w.ErrorLifting(); err != nil {
			return err
		}
		t4 := core.Table4(w.Module.Name, *mitigation, w.Results)
		fmt.Fprintf(out, "  outcomes: S=%d UR=%d FF=%d FC=%d (of %d pairs)\n",
			t4.S, t4.UR, t4.FF, t4.FC, t4.Total)
		suite := w.Suite()
		cycles, err := core.SuiteCycles(suite)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  suite: %d test cases, %d cycles per full pass\n", len(suite.Cases), cycles)

		fmt.Fprintln(out, "phase 2b: validation against emulated aged silicon")
		qrows, err := w.TestQuality(suite)
		if err != nil {
			return err
		}
		for _, q := range qrows {
			fmt.Fprintf(out, "  FM C=%s: detected %.1f%% (B %.1f%%, L %.1f%%, S %.1f%%)\n",
				q.FM, q.Pct(q.Detected), q.Pct(q.Before), q.Pct(q.Later), q.Pct(q.Stall))
		}
		suites = append(suites, suite)
		fmt.Fprintln(out)
	}
	if interrupted(ctx, out, "phases") {
		return nil
	}

	fmt.Fprintln(out, "phase 3: profile-guided test integration (sample: crc32)")
	merged := core.MergeSuites(suites...)
	b, _ := embench.ByName("crc32")
	img, err := b.Build()
	if err != nil {
		return err
	}
	o, err := integrate.MeasureOverhead("crc32", img, merged, *budget, core.MemSize, core.MaxCycles)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  chosen block @%#x (count %d), throttle period %d, est overhead %.3f%%\n",
		o.Site.Block.Start, o.Site.Block.Count, o.Site.Period, o.Site.EffOverhead*100)
	fmt.Fprintf(out, "  measured overhead: %.3f%% (%d -> %d cycles)\n",
		o.Fraction*100, o.BaselineCycles, o.TestedCycles)

	fmt.Fprintln(out, "\nper-pair lifting outcomes:")
	var rows [][]string
	for _, s := range suites {
		for _, tc := range s.Cases {
			rows = append(rows, []string{s.Unit, tc.Name, fmt.Sprint(len(tc.Ops)), tc.CoverPointName()})
		}
	}
	fmt.Fprint(out, report.Table([]string{"Unit", "Test", "Ops", "Observes"}, rows))
	return nil
}
