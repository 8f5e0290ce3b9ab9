package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// run drives one subcommand through the dispatcher.
func run(ctx context.Context, sub string, args []string) (string, error) {
	var out strings.Builder
	_, err := dispatch(ctx, append([]string{sub}, args...), &out)
	return out.String(), err
}

// TestRunSmokeStats drives the CLI end to end on a tiny ALU campaign
// with -stats: the escape table, the packed-simulation accounting, and
// the totals line must all appear in the output.
func TestRunSmokeStats(t *testing.T) {
	got, err := run(context.Background(), "inject", []string{"-unit", "ALU", "-n", "2", "-seed", "3", "-j", "1", "-stats"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"campaign: 8/8 injections classified",
		"Escape rates per fault class",
		"95% CI",
		"Packed simulation accounting",
		"Occup.",
		"GangSettles",
		"SkippedOps",
		"retired-lane savings:",
		"totals: detected",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunBadArgs pins the error path: an unknown unit is an error, not
// an os.Exit, so the CLI surface stays testable — and so is -scalar,
// now that there is one campaign engine to select.
func TestRunBadArgs(t *testing.T) {
	for _, args := range [][]string{{"-unit", "VPU"}, {"-scalar"}} {
		if _, err := run(context.Background(), "inject", args); err == nil {
			t.Errorf("expected an error for %v", args)
		}
	}
}

// TestInjectCPUProfile: -cpuprofile writes the campaign's CPU profile,
// a gzip'd pprof protocol buffer, to the named file.
func TestInjectCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	if _, err := run(context.Background(), "inject", []string{"-unit", "ALU", "-n", "2", "-seed", "3", "-j", "1", "-cpuprofile", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("%s holds %d bytes that do not start with gzip's magic", path, len(data))
	}
}

// TestRunGuards drives a guarded campaign: the escape table must grow
// the guard columns and the totals must attribute guard catches.
func TestRunGuards(t *testing.T) {
	got, err := run(context.Background(), "inject", []string{"-unit", "ALU", "-n", "2", "-seed", "3", "-j", "1", "-guards", "all"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GrdDet", "GrdFire", "guards res3,parity,bounds,flags:"} {
		if !strings.Contains(got, want) {
			t.Errorf("guarded output missing %q:\n%s", want, got)
		}
	}
}

// TestRunBadGuard: an unknown guard name surfaces as a clean error
// naming the available guards.
func TestRunBadGuard(t *testing.T) {
	_, err := run(context.Background(), "inject", []string{"-unit", "ALU", "-n", "1", "-j", "1", "-guards", "res9"})
	if err == nil {
		t.Fatal("expected error for unknown guard")
	}
	if !strings.Contains(err.Error(), "res9") {
		t.Errorf("error does not name the bad guard: %v", err)
	}
}

// TestCommandSurface: an unknown subcommand's error lists the whole
// table, every subcommand returns (not exits on) an unknown flag, and
// -unit is one case-insensitive parser naming the valid units.
func TestCommandSurface(t *testing.T) {
	ctx := context.Background()
	_, err := run(ctx, "nosuch", nil)
	if err == nil {
		t.Fatal("unknown subcommand ran")
	}
	for _, c := range commands {
		if !strings.Contains(err.Error(), c.name) {
			t.Errorf("usage %q does not list %s", err, c.name)
		}
	}
	if len(commands) != 8 {
		t.Errorf("%d subcommands, want 8", len(commands))
	}

	unknownFlag := [][]string{{"-nosuch"}} // the end-to-end run takes flags only
	for _, c := range commands {
		unknownFlag = append(unknownFlag, []string{c.name, "-nosuch"})
	}
	for _, args := range unknownFlag {
		if _, err := dispatch(ctx, args, io.Discard); err == nil || !strings.Contains(err.Error(), "nosuch") {
			t.Errorf("vega %v: err %v, want the unknown flag named", args, err)
		}
	}

	for _, name := range []string{"alu", "ALU", "fpu", "Fpu"} {
		mk, err := unitByName(name)
		if err != nil {
			t.Fatalf("-unit %s: %v", name, err)
		}
		if got := mk(core.Config{}).Module.Name; got != strings.ToUpper(name) {
			t.Errorf("-unit %s resolves to %s", name, got)
		}
	}
	for _, sub := range []string{"failnets", "inject"} {
		_, err := run(ctx, sub, []string{"-unit", "VPU"})
		if err == nil || !strings.Contains(err.Error(), "VPU") || !strings.Contains(err.Error(), "ALU or FPU") {
			t.Errorf("vega %s -unit VPU: err %v, want it to name the bad and the valid units", sub, err)
		}
	}
}

// TestInterruptedBeforeFirstUnit: a signal that has already arrived stops
// each loop at its first boundary, and the subcommand still prints the
// (empty) tables of what completed.
func TestInterruptedBeforeFirstUnit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-j", "1"}, "skipping remaining units"},
		{[]string{"sta", "-j", "1"}, "Table 3"},
		{[]string{"lift", "-j", "1"}, "Table 5"},
		{[]string{"quality", "-j", "1"}, "Table 7"},
		{[]string{"overhead", "-j", "1"}, "skipping remaining configurations"},
	} {
		var out strings.Builder
		_, err := dispatch(ctx, c.args, &out)
		if got := out.String(); err != nil || !strings.Contains(got, "interrupted — skipping") || !strings.Contains(got, c.want) {
			t.Errorf("vega %v interrupted: err %v, output\n%s", c.args, err, got)
		}
	}
}

// TestRealRuns drives the three cheapest subcommands end to end.
func TestRealRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the aged STA of both units")
	}
	ctx := context.Background()
	got, err := run(ctx, "sta", []string{"-j", "1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"analyzing ALU", "analyzing FPU", "worst aged path (FPU)", "Table 3"} {
		if !strings.Contains(got, want) {
			t.Errorf("sta output missing %q:\n%s", want, got)
		}
	}

	dir := t.TempDir()
	got, err = run(ctx, "failnets", []string{"-unit", "ALU", "-limit", "1", "-out", dir})
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "alu_00_*.v"))
	if !strings.Contains(got, "wrote 3 failing netlists") || len(files) != 3 {
		t.Errorf("failnets wrote %v:\n%s", files, got)
	}

	got, err = run(ctx, "synth", []string{"-cells", "2000", "-deltas", "5"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"parse verilog", "full STA (4 corners)", "incremental (5 deltas)", "caches:"} {
		if !strings.Contains(got, want) {
			t.Errorf("synth output missing %q:\n%s", want, got)
		}
	}
}
