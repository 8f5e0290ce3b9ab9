package main

import (
	"context"
	"strings"
	"testing"
)

// TestRunSmokeStats drives the CLI end to end on a tiny ALU campaign
// with -stats: the escape table, the packed-simulation accounting, and
// the totals line must all appear in the output.
func TestRunSmokeStats(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-unit", "ALU", "-n", "2", "-seed", "3", "-j", "1", "-stats"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"campaign: 8/8 injections classified",
		"Escape rates per fault class",
		"95% CI",
		"Packed simulation accounting",
		"Occup.",
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
		var out strings.Builder
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("expected an error for %v", args)
		}
	}
}

// TestRunGuards drives a guarded campaign: the escape table must grow
// the guard columns and the totals must attribute guard catches.
func TestRunGuards(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-unit", "ALU", "-n", "2", "-seed", "3", "-j", "1", "-guards", "all"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"GrdDet", "GrdFire", "guards res3,parity,bounds,flags:"} {
		if !strings.Contains(got, want) {
			t.Errorf("guarded output missing %q:\n%s", want, got)
		}
	}
}

// TestRunBadGuard: an unknown guard name surfaces as a clean error
// naming the available guards.
func TestRunBadGuard(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-unit", "ALU", "-n", "1", "-j", "1", "-guards", "res9"}, &out)
	if err == nil {
		t.Fatal("expected error for unknown guard")
	}
	if !strings.Contains(err.Error(), "res9") {
		t.Errorf("error does not name the bad guard: %v", err)
	}
}
