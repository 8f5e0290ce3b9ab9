package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/report"
	"repro/internal/sigctx"
)

// runInject prints the escape rates of a unit's lifted suite under
// sampled fault universes the pipeline did not target. A deadline or a
// signal ends the campaign with its checkpoint flushed; -checkpoint
// resumes it to the identical final report.
func runInject(ctx context.Context, args []string, out io.Writer) error {
	fs, cfg := newFlags("vega inject", true)
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
	chaosPlan := fs.String("chaos", "", "TESTING ONLY: injected fault plan for checkpoint I/O, e.g. \"crash@3,flip@2:9\" (crash points exit the process)")
	stats := fs.Bool("stats", false, "print packed-simulation accounting (wave occupancy, retired lanes, replay savings, gang ops and settles, wave ops skipped with the recorded golden run)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaign (lift excluded) to this file")
	guards := fs.String("guards", "", "always-on runtime guards: \"all\" or comma-separated guard names (empty = unguarded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, err := unitByName(*unit)
	if err != nil {
		return err
	}

	w := mk(*cfg)
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
		fmt.Fprintf(os.Stderr, "vega inject: CHAOS MODE — fault plan %q armed on checkpoint I/O\n", plan.String())
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
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

	var escapes []string
	detected, guardDetected := 0, 0
	for _, r := range rep.Results {
		switch r.Outcome {
		case inject.SDCEscape.String():
			escapes = append(escapes, fmt.Sprintf("  %s (%d cycles)\n", r.Spec, r.Cycles))
		case inject.Detected.String():
			detected++
			if r.Guard != "" && r.Halt == "exit" {
				guardDetected++
			}
		}
	}
	if len(escapes) > 0 {
		fmt.Fprintf(out, "\n%d silent escapes:\n%s", len(escapes), strings.Join(escapes, ""))
	}
	fmt.Fprintf(out, "\ntotals: detected %d, escapes %d of %d completed\n", detected, len(escapes), rep.Completed)
	if len(rep.Guards) > 0 {
		fmt.Fprintf(out, "guards %s: %d of the %d detections are guard catches the suite missed\n",
			strings.Join(rep.Guards, ","), guardDetected, detected)
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
