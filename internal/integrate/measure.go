package integrate

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/lift"
)

// Overhead is one application's integration measurement (a bar of the
// paper's Figure 9).
type Overhead struct {
	App string
	Embedded
	TestedCycles uint64
	// Fraction is (tested-baseline)/baseline.
	Fraction float64
}

// MeasureOverhead integrates the suite into the application
// (ProfileGuided) and measures the cycle overhead of one run of the
// embedded image against the profiling run's baseline.
func MeasureOverhead(name string, app *isa.Image, suite *lift.Suite, budget float64, memSize int, maxCycles uint64) (*Overhead, error) {
	emb, err := ProfileGuided(app, suite, budget, memSize, maxCycles)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	tested := cpu.New(memSize)
	tested.Load(emb.Image)
	if halt := tested.Run(maxCycles); halt != cpu.HaltExit || tested.ExitCode != 0 {
		return nil, fmt.Errorf("integrate: %s instrumented run failed (halt=%v exit=%d)",
			name, halt, tested.ExitCode)
	}
	return &Overhead{
		App:          name,
		Embedded:     *emb,
		TestedCycles: tested.Cycles,
		Fraction:     float64(tested.Cycles)/float64(emb.BaselineCycles) - 1,
	}, nil
}
