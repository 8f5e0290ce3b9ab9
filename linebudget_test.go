package vega_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// lineBudget is the ceiling on the module's non-test Go lines, as
// TestLineBudget counts them. A change that deletes code lowers it; one
// that must raise it edits it here, in the same diff, and appends the
// reason below.
//
//	26,240  where the ratchet started.
//	26,334  suite replay settles in level order (the counting sort and the
//	        Topo permutation BMC walks), a recycled CPU clears only the
//	        pages it wrote, continuations seed a pooled evaluator, and
//	        recovery refuses job records whose names leave the state dir;
//	        three orphans deleted against it.
//	26,546  the faulted evaluator settles only the runs whose inputs
//	        changed (per-run read tables over a bitset of change flags,
//	        and a second kernel that reports whether a run's outputs
//	        changed: one shared kernel slowed the uniform evaluator), a
//	        CPU decodes into a per-word slice, and the aging library
//	        computes its clobber list; seven floor-test orphans deleted
//	        against it.
//	26,485  eight binaries folded into `vega` subcommands; two orphans deleted.
//	26,403  the unit driver, trace replay and the quickstart run on
//	        engine.Packed; the waveform surface and cell.Kind.Eval deleted;
//	        a BMC query left out of the pool is collected at once.
//	26,462  a sweep names its netlist by SHA-256 and sends the source only
//	        on a 409; /metrics counts the three ways in; a POST /jobs body
//	        with data after its one JSON value is a 400.
//	26,723  no job record is written under the server lock (each
//	        transition claimed, written unlocked, then published, with a
//	        submit key reserved while the first record is in flight), an
//	        idle worker takes a new job straight from Submit, a full
//	        queue refuses before writing, /metrics counts starts and
//	        record write errors, and vega-fleetd -loadtest prints them.
//	27,021  job records go into one append-only log with group commit:
//	        the batch writer, a failed batch cut back off the log,
//	        recovery that drops a torn tail and quarantines corrupt or
//	        untrusted frames, the fresh log New writes, and the chaos
//	        seam's AppendFile and Truncate with every fault kind; the
//	        per-file save, load and quarantine code deleted against it.
//	27,233  recovery reads the log a chunk at a time (chaos.FS.ReadAt),
//	        tells a torn tail (chaos.ErrTruncated) from a rotted last
//	        frame and sets a quarantined job aside whole, keeps IDs in
//	        quarantine/ taken, and writes only what changed: a torn tail
//	        cut off, requeued frames appended, a compaction only after
//	        corruption or when the log doubled (chaos.ReplaceAtomic);
//	        the envelope header parsed without fmt.Sscanf.
//	27,254  sta splits an analysis into Annotate (graph, corner libraries,
//	        every cell's aging factor) and Analyze (delay fill,
//	        propagation, checks), so the fleet caches a netlist's
//	        annotation; fleet.Client remembers its sources' hashes in an
//	        LRU; a netlist blob's lock covers only the map, with per-hash
//	        disk turns. Result.ClockArrival, its maps and computeDelays'
//	        fused second path deleted against it.
//	27,172  the daemon's file recycling (the `recycling` wrapper and
//	        chaos.FS.Link with both implementations) and the blob store's
//	        per-hash disk turns deleted; a campaign's checkpoint is
//	        removed once its job is terminal, and at start.
//	27,335  a finished job is a header: the job log reports where each
//	        frame lands, a result is read back from its verified frame
//	        (GET /jobs/{id}/result, Server.Job with the read error),
//	        compaction copies the recovered frames in log order instead
//	        of re-encoding held jobs, netlist sources live in a 32-entry
//	        LRU, /metrics reports how many are held, and job IDs sort by
//	        number.
//	27,123  knobs and exports with no production caller deleted: the
//	        temperature sweep with sta.Corner's and aging's per-corner
//	        temperature override (aging.NewCornerGrid now returns the
//	        libraries), the BMC stride, lift's depth and budget
//	        pass-throughs, the fan-out cone, the disassembler, and the
//	        client's job fetch and cancel.
//	26,818  one path walk per violating (endpoint, check, corner): the
//	        shared multi-lane DFS, its lane spans and its single-lane
//	        demotion deleted; bmc's unroll bound and conflict budget and
//	        core's SP budget and sample count are package values, not
//	        Config fields.
//	26,622  the fleet client fails fast: its retry policy, the daemon's
//	        submit keys, the resend wait in reserve and store.HashBytes
//	        deleted.
//	26,617  the STA evaluation slab keeps arrivals only: fillDelays, the
//	        per-cell delay lanes, the per-net clock layer and the DFF
//	        launch spelled twice deleted against cellDelays, launch and
//	        the clock slots.
//	26,517  one spelling per computation: CriticalDelay is one fresh
//	        corner of the batched evaluation, an Incremental re-times on
//	        the Annotation it owns through the one factor interpolation
//	        (over a grid the annotation keeps, from a pool of its own),
//	        and a lane snapshot is one engine value; the private fresh
//	        pass, factorsForCell, ExtractLane/HistLane/LFSR and inject's
//	        per-lane site tables deleted.
//	26,558  a fault replay pays for its gates: isa.Decode indexes funct3
//	        and funct7 tables derived from the encode tables at init,
//	        CPU.Digest (moved from inject) folds each unwritten page in one
//	        multiply, and Load checks that text and data fit, then writes
//	        the text in one pass; CPU.Mem deleted.
//	26,457  a retired lane continues on its wave's own program: the
//	        per-lane overlay compile, its port lookups and error path,
//	        the second handshake spelling and inject.checkSite (moved to
//	        the scalar oracle's test file) deleted, and 18 ISA mnemonics
//	        no code or test calls.
//	26,596  a wave's retired lanes continue as one gang of coroutines on
//	        one evaluator: the engine's hold mask, lane-masked input
//	        writes, seeding from many snapshots and a bit-sliced LFSR per
//	        lane, and CPU memory as a page table, so a gang's 63 live CPUs
//	        hold only the pages they wrote; resumeBackend, runContinuation,
//	        the intra-wave par.Map and the evaluator pool deleted.
//	26,917  a campaign records its golden run once, at gate level, and
//	        every later wave answers each unit op in which no live lane
//	        can leave the golden state from the recording (the engine's
//	        Recording with its quiet test and restore, the wave's skip
//	        and the choice of recorder), and vega inject -cpuprofile; a
//	        fault site keeps only its two flip-flop slots.
//	26,820  a retired lane waits held where it diverged and its gang
//	        continues on the wave's own evaluator: the engine's Snapshot,
//	        Seeded, Retire with its mask, zeroed and the broadcast
//	        SetInput deleted, and Edge and Quiet share one spelling of a
//	        site's activation rule.
//	26,768  a wave replays the golden run's unit-op trace and runs no
//	        CPU, and a retired lane resumes at the check that retired
//	        it: the tape type, the wave's module.Unit with its request
//	        check and digest void, counting, the retirement kinds and
//	        the recorded response deleted.
//	26,563  profile-guided integration is decided once, in
//	        integrate.ProfileGuided, whose profiling run is the baseline:
//	        the second profiling chains in vega and datacenter-monitor
//	        and MeasureOverhead's baseline run deleted, with the spec
//	        parser inject.ParseSpec, aging.DegradationCurve and the
//	        campaign's waveAcct (a unit returns its PackedClassStats row).
const lineBudget = 26_563

// TestLineBudget is the ratchet behind ROADMAP's "same numbers from the
// least code": it counts the lines of every non-test Go file the census
// loader would type-check, and fails when they exceed lineBudget.
func TestLineBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("reads every source file of the module")
	}
	lines := 0
	for _, dir := range moduleDirs(t) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !isSource(dir, e.Name()) {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(src, []byte("\n"))
		}
	}
	if lines > lineBudget {
		t.Errorf("%d non-test Go lines, over the ceiling of %d: delete code, or raise lineBudget with a reason", lines, lineBudget)
	} else if lines < lineBudget {
		t.Logf("%d non-test Go lines, %d under the ceiling: lower lineBudget to lock the deletion in", lines, lineBudget-lines)
	}
}
