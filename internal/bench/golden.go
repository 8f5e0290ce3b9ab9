package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
)

// goldenJSON pins the digests of this commit's outputs. It is embedded,
// so the gate works from any working directory; `vega-bench
// -update-golden` rewrites the file after a change that is meant to
// alter an output.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// GoldenPath is the golden file, relative to the repository root.
const GoldenPath = "internal/bench/testdata/golden.json"

// Golden holds SHA-256 digests per workload. Fixed digests have no
// seeded input and are compared at every seed; Seeded ones were pinned
// at Seed (the default) and are compared only there.
type Golden struct {
	Seed   int64                        `json:"seed"`
	Fixed  map[string]map[string]string `json:"fixed"`
	Seeded map[string]map[string]string `json:"seeded"`
}

// fixedDigests names, per workload, the digests no seed reaches.
var fixedDigests = map[string][]string{
	LiftFPU:    {"suite", "suite.shape"},
	ScreenFPU:  {"quality"},
	FleetMixed: {"lift"},
}

func isFixed(workload, key string) bool {
	return slices.Contains(fixedDigests[workload], key)
}

// checkGolden counts one failure per digest of res that misses its pin.
func checkGolden(res *WorkloadResult) error {
	var g Golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("bench: %s: %w", GoldenPath, err)
	}
	keys := make([]string, 0, len(res.Digests))
	for k := range res.Digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pins := g.Seeded
		if isFixed(res.Workload, k) {
			pins = g.Fixed
		} else if res.Seed != g.Seed {
			continue
		}
		if want := pins[res.Workload][k]; res.Digests[k] != want {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("golden %s/%s: got %s, pinned %q", res.Workload, k, res.Digests[k], want))
		}
	}
	return nil
}

// NewGolden pins the digests of a full default-seed run.
func NewGolden(seed int64, results []*WorkloadResult) []byte {
	g := Golden{Seed: seed, Fixed: map[string]map[string]string{}, Seeded: map[string]map[string]string{}}
	for _, res := range results {
		for k, d := range res.Digests {
			pins := g.Seeded
			if isFixed(res.Workload, k) {
				pins = g.Fixed
			}
			if pins[res.Workload] == nil {
				pins[res.Workload] = map[string]string{}
			}
			pins[res.Workload][k] = d
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		panic(err) // maps of strings always marshal
	}
	return append(data, '\n')
}
