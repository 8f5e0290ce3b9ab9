// vega-bench is the Vega performance ledger's command line.
//
//	vega-bench [-seed N] [-seconds S] [-out FILE]
//	    run all four workloads, untraced then traced, check every output,
//	    print every metric by name with its unit, and write the result
//	    file (environment, summaries, spans) to FILE
//	vega-bench -workload W -seed N -seconds S -trace 0|1
//	    one workload the way the benchmark driver runs it: the last line
//	    of standard output is one JSON object with the end-to-end metrics
//	    (-trace 0) or the per-layer metrics (-trace 1)
//	vega-bench compare a.json b.json
//	    judge result file b against the base a
//	vega-bench manifest
//	    print BENCHMARK.json as generated from the metric tables
//
// Any failed correctness check exits non-zero. See internal/bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bench"
)

// processStart is taken at package initialisation, after every imported
// package has initialised: the earliest instant this program can read.
var processStart = time.Now()

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vega-bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			return child(ctx)
		case "manifest":
			_, err := os.Stdout.Write(bench.ManifestJSON())
			return err
		case "compare":
			return compare(args[1:])
		}
	}
	fs := flag.NewFlagSet("vega-bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload and end with the driver's JSON line (default: all four, as a ledger)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", bench.RunSeconds, "measuring time per run")
	trace := fs.Int("trace", 0, "with -workload: 1 adds the traced pass and reports per-layer metrics")
	out := fs.String("out", "vega-bench-result.json", "ledger mode: result file")
	updateGolden := fs.Bool("update-golden", false, "ledger mode: re-pin "+bench.GoldenPath+" from this run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload != "" {
		return contract(ctx, *workload, *seed, *seconds, *trace == 1)
	}
	return ledger(ctx, *seed, *seconds, *out, *updateGolden)
}

// child is one measured process; the parent configures it on stdin and
// reads its report from stdout.
func child(ctx context.Context) error {
	var cfg bench.ChildConfig
	if err := json.NewDecoder(os.Stdin).Decode(&cfg); err != nil {
		return fmt.Errorf("child config: %w", err)
	}
	rep, err := bench.RunChild(ctx, cfg, processStart)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// contract is one driver run. A traced run splits its time between the
// untraced iterations the tracing overhead is measured against and the
// traced pass, so each gets half the seconds and half the fleet jobs.
func contract(ctx context.Context, workload string, seed int64, seconds float64, trace bool) error {
	o := bench.Options{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Params: bench.DefaultParams(), Golden: true}
	if trace {
		o.Seconds = seconds / 2
		o.Params.Jobs /= 2
	}
	res, err := bench.Run(ctx, o)
	if err != nil {
		return err
	}
	fmt.Print(res.Text())
	line, err := res.ContractLine(trace)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct() {
		return fmt.Errorf("%s: %d of %d operations failed a check", workload, res.Failed, res.Attempted)
	}
	return nil
}

// ledger runs every workload, traced, and writes the result file.
func ledger(ctx context.Context, seed int64, seconds float64, out string, updateGolden bool) error {
	l := bench.Ledger{Schema: 1, Env: bench.CaptureEnv("."), Seed: seed}
	fmt.Printf("env: %+v\n", l.Env)
	failed := 0
	for _, w := range bench.Workloads {
		res, err := bench.Run(ctx, bench.Options{Workload: w.Name, Seed: seed, Seconds: seconds, Trace: true,
			Params: bench.DefaultParams(), Golden: !updateGolden})
		if err != nil {
			return err
		}
		fmt.Print(res.Text())
		failed += res.Failed
		l.Workloads = append(l.Workloads, res)
	}
	data, err := json.Marshal(&l)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if updateGolden {
		if err := os.WriteFile(bench.GoldenPath, bench.NewGolden(seed, l.Workloads), 0o644); err != nil {
			return err
		}
		fmt.Printf("re-pinned %s\n", bench.GoldenPath)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed a check", failed)
	}
	return nil
}

func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: vega-bench compare a.json b.json")
	}
	a, err := bench.LoadLedger(args[0])
	if err != nil {
		return err
	}
	b, err := bench.LoadLedger(args[1])
	if err != nil {
		return err
	}
	rows, diffs := bench.Compare(a, b)
	if n := bench.WriteComparison(os.Stdout, rows, diffs); n > 0 {
		return fmt.Errorf("%d rows are not ok", n)
	}
	return nil
}
