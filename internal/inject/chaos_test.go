package inject

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
)

// TestUntrustedCheckpointQuarantinedAndRecomputed: a checkpoint this
// build cannot trust — one silently flipped bit (caught by the envelope
// CRC), a payload with no envelope around it, or an older schema version
// — is quarantined and the campaign recomputed from scratch: same final
// bytes, the file never consumed.
func TestUntrustedCheckpointQuarantinedAndRecomputed(t *testing.T) {
	damage := map[string]func(t *testing.T, data []byte) []byte{
		"bit-flip": func(t *testing.T, data []byte) []byte {
			data[len(data)/2] ^= 0x20
			return data
		},
		"unsealed": func(t *testing.T, data []byte) []byte {
			payload, _, err := chaos.Open(data)
			if err != nil {
				t.Fatal(err)
			}
			return payload
		},
		"old-version": func(t *testing.T, data []byte) []byte {
			payload, _, err := chaos.Open(data)
			if err != nil {
				t.Fatal(err)
			}
			old := bytes.Replace(payload, []byte(`"Version": 2`), []byte(`"Version": 1`), 1)
			if bytes.Equal(old, payload) {
				t.Fatal("checkpoint does not carry the version field where expected")
			}
			return chaos.Seal(old)
		},
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			cfg, _ := testCampaign(t, 2)
			dir := t.TempDir()
			cfg.CheckpointPath = filepath.Join(dir, "campaign.json")
			cfg.CheckpointEvery = 3
			want := runJSON(t, cfg) // completes; checkpoint left on disk

			data, err := os.ReadFile(cfg.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cfg.CheckpointPath, hurt(t, data), 0o644); err != nil {
				t.Fatal(err)
			}

			rep, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("untrusted checkpoint should quarantine, not error: %v", err)
			}
			got, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report after the recompute diverges")
			}
			qdir := filepath.Join(dir, chaos.QuarantineDirName)
			if ents, err := os.ReadDir(qdir); err != nil || len(ents) != 1 {
				t.Errorf("checkpoint not quarantined under %s (err %v)", qdir, err)
			}
		})
	}
}

// TestSilentFlipDuringCheckpointWrite injects the paper's failure mode
// into the campaign's own persistence: the filesystem silently flips
// one bit while the final checkpoint wave is written. The write
// succeeds — nothing notices at write time — but the next load must
// catch it via the envelope checksum and recompute rather than resume
// corrupted state.
func TestSilentFlipDuringCheckpointWrite(t *testing.T) {
	cfg, _ := testCampaign(t, 2)
	dir := t.TempDir()
	cfg.CheckpointPath = filepath.Join(dir, "campaign.json")
	cfg.CheckpointEvery = 3
	// Calibrate: count the clean run's I/O steps so the flip can be
	// aimed at the final WriteAtomic's payload write (its last 4 steps
	// are write, fsync, rename, dir-fsync).
	count := chaos.NewInjected(chaos.OS{}, chaos.Plan{})
	cfg.FS = count
	want, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}

	cfg.FS = chaos.NewInjected(chaos.OS{}, chaos.Plan{Faults: []chaos.Fault{
		{Step: count.Steps() - 3, Kind: chaos.Flip, Arg: 100},
	}})
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("campaign with silent flip failed loudly at write time: %v", err)
	}
	if data, jerr := rep.JSON(); jerr != nil || !bytes.Equal(data, wantJSON) {
		t.Fatalf("in-memory report affected by an on-disk flip (err %v)", jerr)
	}

	// The flip landed in the committed checkpoint: prove it is there,
	// then prove the next run refuses to consume it.
	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := chaos.Open(data); err == nil {
		t.Fatal("flipped checkpoint still passes its envelope check — flip not injected where expected")
	}

	cfg.FS = nil
	rep2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("recompute over flipped checkpoint: %v", err)
	}
	if data, jerr := rep2.JSON(); jerr != nil || !bytes.Equal(data, wantJSON) {
		t.Errorf("recomputed report diverges after silent flip (err %v)", jerr)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, chaos.QuarantineDirName)); err != nil || len(ents) != 1 {
		t.Errorf("flipped checkpoint not quarantined (err %v)", err)
	}
}

// TestTornCheckpointWriteKeepsPreviousWave: a write torn mid-payload
// (power loss between write and rename) must never reach the committed
// checkpoint path — the atomic-replace discipline confines the tear to
// the .tmp file, and a resume picks up the previous intact wave.
func TestTornCheckpointWriteKeepsPreviousWave(t *testing.T) {
	cfg, _ := testCampaign(t, 2)
	want := runJSON(t, cfg)
	dir := t.TempDir()
	cfg.CheckpointPath = filepath.Join(dir, "campaign.json")
	cfg.CheckpointEvery = 3

	// Tear the SECOND persist's payload write (step 6: load=1, first
	// persist=2..5, second starts at 6) halfway through.
	cfg.FS = chaos.NewInjected(chaos.OS{}, chaos.Plan{Faults: []chaos.Fault{
		{Step: 6, Kind: chaos.Torn, Arg: 40},
	}})
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("campaign survived a filesystem that died mid-write")
	}

	// The committed checkpoint must be the intact first wave; the torn
	// bytes exist only as .tmp debris.
	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatalf("committed checkpoint lost to a torn tmp write: %v", err)
	}
	if _, sealed, err := chaos.Open(data); err != nil || !sealed {
		t.Fatalf("committed checkpoint damaged (sealed=%v err=%v)", sealed, err)
	}

	cfg.FS = nil
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resume after torn write diverges from uninterrupted run")
	}
}
