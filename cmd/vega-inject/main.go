// vega-inject runs the fault-injection campaign: it lifts a unit's test
// suite, samples fault universes the pipeline did NOT target (off-path
// stuck-at, transient flips, intermittent flips, multi-fault silicon),
// runs every injection under the suite, and prints the escape-rate
// table per fault class. Injections are classified by packed concurrent
// fault simulation — 63 faults share one compiled gate-level wave and
// diverging lanes retire to per-fault continuations — with `-stats`
// printing the wave occupancy and retirement accounting. Campaigns can be
// deadline-bounded (-deadline) and checkpointed (-checkpoint): an
// interrupted run resumes to the identical final report.
//
// `-guards all` (or a comma-separated subset of the unit's guard names,
// see internal/guard) attaches the always-on algebraic runtime guards
// as an extra detection source: completed runs whose state diverged
// from golden but whose guard log fired are classified detected instead
// of sdc-escape, and the escape table gains per-class guard columns.
//
// SIGINT/SIGTERM interrupt the campaign gracefully through the shared
// internal/sigctx path (the same one fleetd workers drain through): the
// current checkpoint wave is flushed, the partial report and any -json
// output are written, and the process exits with code 130 so wrappers
// can tell an interrupted run from a failed one. A second signal kills
// immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/report"
	"repro/internal/sigctx"
)

func main() {
	ctx, stop := sigctx.Notify(context.Background())
	err := run(ctx, os.Args[1:], os.Stdout)
	interrupted := sigctx.Interrupted(ctx) // before stop(): stop cancels too
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vega-inject:", err)
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "vega-inject: interrupted — checkpoint flushed, resume with -checkpoint")
		os.Exit(sigctx.ExitInterrupted)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vega-inject", flag.ContinueOnError)
	unit := fs.String("unit", "ALU", "unit to inject (ALU or FPU)")
	seed := fs.Uint64("seed", 1, "fault-universe sampling seed")
	perClass := fs.Int("n", 25, "injections per fault class")
	mode := fs.String("mode", "standalone", "program under injection: standalone (suite image) or embedded (workload carrying the suite)")
	workload := fs.String("workload", "crc32", "embedded-mode benchmark")
	budget := fs.Float64("budget", 0.01, "embedded-mode integration overhead budget")
	maxCycles := fs.Uint64("max-cycles", 0, "per-injection cycle budget (0 = engine default)")
	deadline := fs.Duration("deadline", 0, "overall wall-clock deadline (0 = none); an expired campaign reports coverage so far")
	checkpoint := fs.String("checkpoint", "", "checkpoint file for resume (atomic JSON)")
	jsonOut := fs.String("json", "", "write the full report JSON to this file")
	years := fs.Float64("years", 10, "assumed lifetime in years")
	jobs := fs.Int("j", 0, "worker parallelism (0 = all CPUs, 1 = sequential)")
	chaosPlan := fs.String("chaos", "", "TESTING ONLY: injected fault plan for checkpoint I/O, e.g. \"crash@3,flip@2:9\" (crash points exit the process)")
	stats := fs.Bool("stats", false, "print packed-simulation accounting (wave occupancy, retired lanes, replay savings)")
	guards := fs.String("guards", "", "always-on runtime guards: \"all\" or comma-separated guard names (empty = unguarded)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var mk func(core.Config) *core.Workflow
	switch *unit {
	case "ALU":
		mk = core.NewALU
	case "FPU":
		mk = core.NewFPU
	default:
		return fmt.Errorf("unknown unit %q", *unit)
	}
	w := mk(core.Config{Years: *years, Parallelism: *jobs})
	fmt.Fprintf(out, "lifting %s ...\n", w.Describe())
	if _, err := w.ErrorLifting(); err != nil {
		return err
	}
	fmt.Fprintf(out, "suite: %d cases; sampling %d injections per class (seed %d, mode %s)\n",
		len(w.Suite().Cases), *perClass, *seed, *mode)

	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	var fsys chaos.FS
	if *chaosPlan != "" {
		plan, err := chaos.ParsePlan(*chaosPlan)
		if err != nil {
			return err
		}
		inj := chaos.NewInjected(chaos.OS{}, plan)
		inj.ExitOnCrash = true // crash points kill the process, like real power loss
		fsys = inj
		fmt.Fprintf(os.Stderr, "vega-inject: CHAOS MODE — fault plan %q armed on checkpoint I/O\n", plan.String())
	}

	start := time.Now()
	rep, ps, err := w.InjectionCampaignStats(ctx, core.InjectOptions{
		Seed:           *seed,
		PerClass:       *perClass,
		Mode:           *mode,
		Workload:       *workload,
		Budget:         *budget,
		MaxCycles:      *maxCycles,
		CheckpointPath: *checkpoint,
		FS:             fsys,
		Guards:         guardList(*guards),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "campaign: %d/%d injections classified in %s", rep.Completed, rep.Total,
		time.Since(start).Round(time.Millisecond))
	if rep.Partial {
		if sigctx.Interrupted(ctx) {
			fmt.Fprintf(out, " (PARTIAL — interrupted; coverage so far, resume with -checkpoint)")
		} else {
			fmt.Fprintf(out, " (PARTIAL — deadline hit; coverage so far, resume with -checkpoint)")
		}
	}
	fmt.Fprintln(out)

	fmt.Fprintf(out, "\nEscape rates per fault class (%s, %s mode):\n", rep.Unit, rep.Mode)
	fmt.Fprint(out, report.EscapeTable(rep))

	if *stats {
		fmt.Fprintf(out, "\nPacked simulation accounting (golden run: %d unit ops):\n", ps.GoldenOps)
		fmt.Fprint(out, report.PackedStatsTable(ps))
		fmt.Fprintf(out, "retired-lane savings: %.1f%% of per-lane unit-op work avoided by wave sharing and early retirement\n",
			100*ps.TotalSavings())
	}

	escaped := 0
	for _, r := range rep.Results {
		if r.Outcome == inject.SDCEscape.String() {
			escaped++
		}
	}
	if escaped > 0 {
		fmt.Fprintf(out, "\n%d silent escapes:\n", escaped)
		for _, r := range rep.Results {
			if r.Outcome == inject.SDCEscape.String() {
				fmt.Fprintf(out, "  %s (%d cycles)\n", r.Spec, r.Cycles)
			}
		}
	}
	detectedCases, guardDetected := 0, 0
	for _, r := range rep.Results {
		if r.Outcome == inject.Detected.String() {
			detectedCases++
			if r.Guard != "" && r.Halt == "exit" {
				guardDetected++
			}
		}
	}
	fmt.Fprintf(out, "\ntotals: detected %d, escapes %d of %d completed\n", detectedCases, escaped, rep.Completed)
	if len(rep.Guards) > 0 {
		fmt.Fprintf(out, "guards %s: %d of the %d detections are guard catches the suite missed\n",
			strings.Join(rep.Guards, ","), guardDetected, detectedCases)
	}

	if *jsonOut != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n", *jsonOut)
	}
	return nil
}

// guardList splits the -guards flag into the name list the campaign
// expects; whitespace around commas is tolerated.
func guardList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
