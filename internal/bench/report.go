package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Params sizes the workloads. DefaultParams is the benchmark; the
// tier-1 smoke test shrinks every field so the ledger cannot rot
// between benchmark runs.
type Params struct {
	Unit          string   `json:"unit"`            // lifted unit of lift-fpu / screen-fpu
	Embench       []string `json:"embench"`         // its representative workloads (nil: all of embench)
	VsRandomSeeds int      `json:"vs_random_seeds"` // random suites per VsRandom
	PerClass      int      `json:"per_class"`       // screen-fpu injections per class
	Cells         int      `json:"cells"`           // scale-1m target cell count
	SPCycles      int      `json:"sp_cycles"`       // scale-1m packed random-SP cycles
	Updates       int      `json:"updates"`         // scale-1m UpdateSP calls
	Deltas        int      `json:"deltas"`          // SP deltas per update
	HotVariants   int      `json:"hot_variants"`    // fleet-mixed hot netlists
	HotCells      int      `json:"hot_cells"`       // cells per hot netlist
	Jobs          int      `json:"jobs"`            // jobs drained from the seed-shuffled population
	Clients       int      `json:"clients"`         // closed-loop fleet clients
	Workers       int      `json:"workers"`         // fleet worker pool
}

// DefaultParams sizes the benchmark proper (for nproc = 2).
func DefaultParams() Params {
	return Params{
		Unit: "FPU", VsRandomSeeds: 4, PerClass: 500,
		Cells: 1_000_000, SPCycles: 16, Updates: 200, Deltas: 100,
		HotVariants: 8, HotCells: 2000, Jobs: 1200, Clients: 2, Workers: 2,
	}
}

// SmokeParams is the reduced suite of the tier-1 test: ALU instead of
// FPU, 10^4 cells, 40 jobs.
func SmokeParams() Params {
	return Params{
		Unit: "ALU", Embench: []string{"crc32"}, VsRandomSeeds: 1, PerClass: 5,
		Cells: 10_000, SPCycles: 16, Updates: 5, Deltas: 20,
		HotVariants: 2, HotCells: 400, Jobs: 40, Clients: 2, Workers: 2,
	}
}

// ChildConfig is what the parent hands one child process on stdin. A
// child is either an untraced measuring loop of about Seconds (one
// iteration for the per-process workloads) or, with Trace, one traced
// pass.
type ChildConfig struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Iter     int     `json:"iter"`
	Dir      string  `json:"dir"` // scratch directory inside the checkout
	Params   Params  `json:"params"`
}

// ChildReport is what a child prints on stdout when it ends.
type ChildReport struct {
	// StartUnixNano is the wall clock at the child's package
	// initialisation, so the parent can time spawn -> main.
	StartUnixNano int64 `json:"start_unix_ns"`
	// Samples holds end-to-end samples by metric name, plus "iter_s":
	// the wall of one whole operation, the base of the tracing overhead.
	Samples map[string][]float64 `json:"samples"`
	// Layer holds the traced pass's per-layer values by metric name.
	Layer   map[string]float64 `json:"layer,omitempty"`
	Spans   []Span             `json:"spans,omitempty"`
	Digests map[string]string  `json:"digests"`
	// Attempted and Failed count operations: iterations, or jobs in
	// fleet-mixed. A job that ends other than done, or any result that
	// misses its oracle, counts as failed.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

func newChildReport() *ChildReport {
	return &ChildReport{
		Samples: map[string][]float64{},
		Layer:   map[string]float64{},
		Digests: map[string]string{},
	}
}

func (r *ChildReport) sample(name string, v float64) {
	r.Samples[name] = append(r.Samples[name], v)
}

// fail records one failed operation with the reason.
func (r *ChildReport) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// check records a failure unless got equals want.
func (r *ChildReport) check(what, got, want string) {
	if got != want {
		r.fail("%s: got %s, want %s", what, got, want)
	}
}

// digest is the SHA-256 of data in hex.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// digestJSON marshals v and digests the bytes.
func digestJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digest(data), nil
}

// WorkloadResult is one workload's entry in the ledger: end-to-end
// summaries from the untraced iterations and, when the run traced, the
// per-layer values and spans of the traced pass.
type WorkloadResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// Load states how the load was generated (closed loop and client
	// count for fleet-mixed, sequential for the batch workloads).
	Load      string             `json:"load"`
	EndToEnd  map[string]Summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Digests   map[string]string  `json:"digests"`
	Spans     []Span             `json:"spans,omitempty"`
}

// Correct reports whether every operation passed every check.
func (w *WorkloadResult) Correct() bool { return w.Failed == 0 }

// Ledger is the result file of one `vega-bench` invocation.
type Ledger struct {
	Schema    int               `json:"schema"`
	Env       Env               `json:"env"`
	Seed      int64             `json:"seed"`
	Workloads []*WorkloadResult `json:"workloads"`
}
