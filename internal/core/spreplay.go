package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/module"
	"repro/internal/netlist"
)

// profileChunks is the fixed partition width of the gate-level SP
// replay: the sampled operations are cut into this many contiguous
// chunks and each chunk is replayed on a unit that starts from reset.
// It is a constant because the chunk boundaries define where the
// replayed unit's state resets, and moving one moves the profile.
const profileChunks = 16

// laneBus is one input port of the packed replay: a word per port bit,
// bit l of each holding what lane l drives.
type laneBus struct {
	bits  netlist.Bus
	words []uint64
}

func newLaneBus(nl *netlist.Netlist, port string) *laneBus {
	p, ok := nl.FindInput(port)
	if !ok {
		panic(fmt.Sprintf("core: no input port %q on %s", port, nl.Name))
	}
	return &laneBus{bits: p.Bits, words: make([]uint64, len(p.Bits))}
}

// set drives the port with the low bits of val in one lane, leaving the
// other lanes' values as they are.
func (b *laneBus) set(e *engine.Packed, lane int, val uint64) {
	for i, n := range b.bits {
		b.words[i] = b.words[i]&^(1<<uint(lane)) | (val>>uint(i)&1)<<uint(lane)
		e.SetNet(n, b.words[i])
	}
}

// replaySP replays the sampled operations through the module's netlist
// with gap idle cycles after each and returns the signal-probability
// profile of the replay. Chunk c of the profileChunks-way partition runs
// in lane c of one packed evaluator, and every lane keeps the schedule
// module.Driver.Exec gives a unit of its own: a cycle presenting the
// operation with in_valid high, then in_valid low and a step per cycle
// until that lane's out_valid rises (at most Latency+StallLimit of
// them), then gap more idle cycles, then the next operation. A lane's
// cycles are observed from its first operation to the end of its last
// gap and not after, so the profile is what one unit per chunk, each
// replaying alone, would add up to — count for count.
func replaySP(m *module.Module, sampled []cpu.OpRecord, gap int) *engine.Profile {
	nl := m.Netlist
	e := engine.NewPacked(engine.Cached(nl))
	e.EnableSP()
	inValid := newLaneBus(nl, module.PortInValid)
	opBus, aBus, bBus := newLaneBus(nl, module.PortOp), newLaneBus(nl, module.PortA), newLaneBus(nl, module.PortB)
	outPort, ok := nl.FindOutput(module.PortOutValid)
	if !ok {
		panic(fmt.Sprintf("core: no output port %q on %s", module.PortOutValid, nl.Name))
	}
	outValid := outPort.Bits[0]

	// What a lane does with its next cycle: present an operation, wait
	// for out_valid (left more cycles at most), or idle (left more
	// cycles); done lanes have left the observation.
	type phase uint8
	const (
		issue phase = iota
		wait
		idle
		done
	)
	chunks := min(profileChunks, len(sampled))
	lanes := make([]struct {
		phase    phase
		next, hi int // sampled[next:hi] is still to be issued
		left     int
	}, chunks)
	active := uint64(0)
	// present moves a lane whose idle cycles are over to its next
	// operation, or out of the observation after its last.
	present := func(l int) {
		ln := &lanes[l]
		if ln.next == ln.hi {
			ln.phase = done
			active &^= 1 << uint(l)
			return
		}
		op := sampled[ln.next]
		ln.next++
		ln.phase = issue
		inValid.set(e, l, 1)
		opBus.set(e, l, uint64(op.Op))
		aBus.set(e, l, uint64(op.A))
		bBus.set(e, l, uint64(op.B))
	}
	for l := range lanes {
		lanes[l].next = l * len(sampled) / chunks
		lanes[l].hi = (l + 1) * len(sampled) / chunks
		active |= 1 << uint(l)
		present(l)
	}

	for active != 0 {
		e.Settle()
		// A waiting lane whose out_valid is up (or whose patience is
		// spent) takes this cycle as the first of its gap; with no gap
		// it presents its next operation in this very cycle, and the
		// changed inputs have to settle again.
		resettle := false
		for l := range lanes {
			ln := &lanes[l]
			if ln.phase != wait || (ln.left > 0 && !e.Lane(outValid, l)) {
				continue
			}
			ln.phase, ln.left = idle, gap
			if gap == 0 {
				present(l)
				resettle = true
			}
		}
		if resettle {
			e.Settle()
		}
		e.ObserveLanes(active)
		e.Edge()
		for l := range lanes {
			ln := &lanes[l]
			switch ln.phase {
			case issue:
				inValid.set(e, l, 0)
				ln.phase, ln.left = wait, m.Latency+module.StallLimit
			case wait:
				ln.left--
			case idle:
				if ln.left--; ln.left == 0 {
					present(l)
				}
			}
		}
	}
	return e.Profile()
}
