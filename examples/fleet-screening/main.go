// fleet-screening simulates the data-center screening problem that
// motivates the paper — a fleet of nominally identical CPUs, a few aged
// into timing failure, an operator who needs to find them fast — and
// runs it the way a real fleet would: against a fleetd screening daemon
// (client and server in one process here, HTTP in between).
//
// The example brings up an in-process vega-fleetd, then:
//
//  1. submits a lift job and downloads the Vega test suite;
//  2. submits a lifetime-sweep job for the ALU netlist to locate the
//     fleet's failure-onset window;
//  3. screens every machine locally with the downloaded suite against a
//     size-matched random baseline;
//  4. resubmits the same sweep and shows it riding the daemon's
//     content-addressed cache (warm submission, no recompile), with the
//     /metrics counters as evidence.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"
	"os"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/lift"
	"repro/internal/module"
	"repro/internal/report"
)

type machine struct {
	id       int
	years    float64
	degraded bool       // did aging exceed the slack margin?
	spec     fault.Spec // the failure it develops (if degraded)
}

func main() {
	// An in-process fleetd: same daemon, same HTTP surface as the
	// standalone binary, listening on a loopback test listener.
	dir, err := os.MkdirTemp("", "fleet-screening-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	srv, err := fleet.New(fleet.Options{Dir: dir, Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Shutdown(context.Background())
	c := &fleet.Client{Base: hs.URL}
	ctx := context.Background()
	fmt.Printf("== fleetd up on %s ==\n", hs.URL)

	// 1. The suite comes from the daemon, not a local workflow: submit
	// a lift job, wait, download the result.
	fmt.Println("== submitting ALU lift job ==")
	liftJob, err := c.Submit(ctx, fleet.Spec{Kind: fleet.KindLift, Unit: "ALU", Mitigation: true})
	if err != nil {
		log.Fatal(err)
	}
	liftDone := waitDone(ctx, c, liftJob.ID)
	suiteBytes, err := c.Result(ctx, liftJob.ID)
	if err != nil {
		log.Fatal(err)
	}
	var suite lift.Suite
	if err := json.Unmarshal(suiteBytes, &suite); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s done in %.0fms: %d test cases\n", liftJob.ID, liftDone.ServiceMs, len(suite.Cases))

	// The screening harness still needs the module and its aged pairs;
	// build the local workflow for the simulator side of the story (the
	// daemon's cached workflow produced the suite we just downloaded).
	w := core.NewALU(core.Config{Lift: lift.Config{Mitigation: true}})
	if _, err := w.ErrorLifting(); err != nil {
		log.Fatal(err)
	}
	random := lift.RandomSuite(w.Module, len(suite.Cases), 4242)

	// 2. Ask the daemon when this design starts failing: a sweep job
	// over the ALU netlist source — the same submission a fleet
	// operator would make for any netlist, no special-casing.
	fmt.Println("\n== submitting lifetime-sweep job for the ALU netlist ==")
	// A 2% period margin over the fresh critical delay: tight enough
	// that aging eats through it mid-life, so the sweep shows the
	// fleet's failure-onset window instead of uniform green.
	sweepSpec := fleet.Spec{
		Kind:      fleet.KindSweep,
		Verilog:   w.Module.Netlist.Verilog(),
		Margin:    1.02,
		YearsGrid: []float64{0, 2, 4, 6, 8, 10},
	}
	sweepJob, err := c.Submit(ctx, sweepSpec)
	if err != nil {
		log.Fatal(err)
	}
	sweepDone := waitDone(ctx, c, sweepJob.ID)
	sweepBytes, err := c.Result(ctx, sweepJob.ID)
	if err != nil {
		log.Fatal(err)
	}
	var sweep fleet.SweepResult
	if err := json.Unmarshal(sweepBytes, &sweep); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s done in %.0fms (cold compile: cache_hit=%v)\n",
		sweepJob.ID, sweepDone.ServiceMs, sweepJob.CacheHit)
	for _, p := range sweep.Points {
		fmt.Printf("  %4.1fy  WNS setup %+8.1fps  (%d violating paths)\n",
			p.Years, p.WNSSetup, p.SetupViolations)
	}

	// 3. Screen the fleet locally with the downloaded suite.
	pairs := w.STA.Pairs
	rng := rand.New(rand.NewSource(99))
	const fleetSize = 12
	machines := make([]machine, fleetSize)
	for i := range machines {
		m := &machines[i]
		m.id = i
		m.years = float64(rng.Intn(12)) + rng.Float64()
		onset := 6.5 + rng.Float64()*3 // die-to-die variation of failure onset
		m.degraded = m.years >= onset
		if m.degraded {
			p := pairs[rng.Intn(len(pairs))]
			m.spec = fault.Spec{
				Type:  p.Type,
				Start: p.Pair.Start,
				End:   p.Pair.End,
				C:     []fault.CValue{fault.C0, fault.C1, fault.CRandom}[rng.Intn(3)],
			}
		}
	}

	screen := func(s *lift.Suite, m machine) bool {
		img, err := s.Image()
		if err != nil {
			log.Fatal(err)
		}
		c := cpu.New(core.MemSize)
		nl := w.Module.Netlist
		if m.degraded {
			nl = fault.FailingNetlist(nl, m.spec)
		}
		c.ALU = module.NewDriverOn(w.Module, nl)
		c.Load(img)
		halt := c.Run(core.MaxCycles)
		return halt == cpu.HaltBreak || halt == cpu.HaltStalled || halt == cpu.HaltFault
	}

	fmt.Println("\n== screening the fleet with the downloaded suite ==")
	var rows [][]string
	vegaOK, randOK := 0, 0
	for _, m := range machines {
		vega := screen(&suite, m)
		rnd := screen(random, m)
		state := "healthy"
		if m.degraded {
			state = fmt.Sprintf("FAILING (%s, C=%s)", m.spec.Type, m.spec.C)
		}
		if vega == m.degraded {
			vegaOK++
		}
		if rnd == m.degraded {
			randOK++
		}
		rows = append(rows, []string{
			fmt.Sprintf("node-%02d", m.id),
			fmt.Sprintf("%.1f", m.years),
			state,
			verdict(vega, m.degraded),
			verdict(rnd, m.degraded),
		})
	}
	fmt.Print(report.Table(
		[]string{"Machine", "Age (y)", "True state", "Vega screen", "Random screen"}, rows))
	fmt.Printf("\nscreening accuracy: Vega %d/%d, random %d/%d\n",
		vegaOK, fleetSize, randOK, fleetSize)

	// 4. A second operator submits the same netlist: the daemon serves
	// it from the shared content-addressed store — no parse, no
	// characterization, just the analysis pass.
	fmt.Println("\n== resubmitting the same sweep (another operator, same netlist) ==")
	again, err := c.Submit(ctx, sweepSpec)
	if err != nil {
		log.Fatal(err)
	}
	againDone := waitDone(ctx, c, again.ID)
	fmt.Printf("job %s done in %.0fms (warm: cache_hit=%v)\n",
		again.ID, againDone.ServiceMs, again.CacheHit)
	m, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store: %d builds, %d hits, %d coalesced (len %d); jobs: %v\n",
		m.Store.Builds, m.Store.Hits, m.Store.Coalesced, m.Store.Len, m.Jobs)
}

// waitDone polls the daemon until the job completes.
func waitDone(ctx context.Context, c *fleet.Client, id string) *fleet.Job {
	j, err := c.Wait(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	if j.Status != fleet.StatusDone {
		log.Fatalf("job %s finished %s: %s", id, j.Status, j.Error)
	}
	return j
}

func verdict(flagged, degraded bool) string {
	switch {
	case flagged && degraded:
		return "caught"
	case !flagged && !degraded:
		return "clean"
	case flagged && !degraded:
		return "FALSE ALARM"
	default:
		return "ESCAPED"
	}
}
