package inject

import (
	"context"
	"testing"
)

// runWave runs one wave of idxs that neither records nor skips. A nil
// backend means ctx interrupted the run.
func runWave(ctx context.Context, cfg *Config, g *goldenInfo, idxs []int) (*packedBackend, error) {
	pb, err := newWave(cfg, idxs, nil, false)
	if err != nil {
		return nil, err
	}
	if ok, err := pb.run(ctx, g); !ok {
		return nil, err
	}
	return pb, nil
}

// fullWaves makes every wave of the campaigns t runs simulate every unit
// op: no wave records the golden run, and none skips.
func fullWaves(t *testing.T) {
	skipQuiet = false
	t.Cleanup(func() { skipQuiet = true })
}
