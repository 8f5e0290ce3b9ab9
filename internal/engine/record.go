package engine

import "fmt"

// This file lets evaluators of one program share a golden run. Every
// wave of a fault campaign replays the same stimulus, so a Recording
// keeps one evaluator's lane 0 once: at each mark (one per unit op, as
// the driver chooses) the golden state, and at each clock edge what Edge
// reads of every flip-flop. A later evaluator asks Quiet whether any of
// its unheld lanes can leave the golden state between two marks;
// where none can, the driver answers the span itself and simulates
// nothing (concurrent fault simulation's rule, applied to whole spans),
// and the next span it simulates starts from Restore.

// Recording is lane 0 of one evaluator's run. It belongs to the program
// it was recorded on: Quiet and Restore panic on an evaluator of another.
// Once its recorder has finished it is read-only, and evaluators on
// several goroutines may share it.
type Recording struct {
	prog   *Program
	sw, dw int // words of one state bitset, of one flip-flop bitset

	// At each mark: every state net's bit, the k-th state net in
	// ascending net order at bit k%64 of word k/64 of the mark's; each
	// flip-flop's setup history bit (its Q at its last clocked edge, as
	// the history register of a setup site launched from it holds it);
	// the LFSR; and the index of the first edge after the mark.
	nets  []uint64
	hist  []uint64
	lfsr  []uint16
	first []int32

	// At each edge: each flip-flop's Q, D and clock bit, dw words each.
	edges  []uint64
	nedges int
	gh     []uint64 // the history bits at the last edge recorded
}

// Record starts recording e's lane 0 and returns the Recording that
// Mark and every Edge that clocks lane 0 add to from now on: an edge at
// which lane 0 is held is not part of lane 0's run. e must be at reset.
func (e *FaultedPacked) Record() *Recording {
	p := e.prog
	r := &Recording{prog: p, sw: (len(e.feeds.state) + 63) / 64, dw: (len(p.DFFs) + 63) / 64}
	r.gh = make([]uint64, r.dw)
	for i := range p.DFFs {
		if p.DFFs[i].Init {
			r.gh[i/64] |= 1 << uint(i%64)
		}
	}
	e.rec = r
	return r
}

// Mark records lane 0's state as the next mark of e's Recording.
func (e *FaultedPacked) Mark() {
	r := e.rec
	at := len(r.nets)
	r.nets = append(r.nets, make([]uint64, r.sw)...)
	for k, n := range e.feeds.state {
		r.nets[at+k/64] |= (e.vals[n] & 1) << uint(k%64)
	}
	r.hist = append(r.hist, r.gh...)
	var l uint16
	for k, w := range e.lfsr {
		l |= uint16(w&1) << uint(k)
	}
	r.lfsr = append(r.lfsr, l)
	r.first = append(r.first, int32(r.nedges))
}

// edge records lane 0 of the pre-edge words Edge reads.
func (r *Recording) edge(vals []uint64, dffs []DFF) {
	at := len(r.edges)
	r.nedges++
	r.edges = append(r.edges, make([]uint64, 3*r.dw)...)
	q, d, c := r.edges[at:at+r.dw], r.edges[at+r.dw:at+2*r.dw], r.edges[at+2*r.dw:]
	for i := range dffs {
		f := &dffs[i]
		w, b := i/64, uint(i%64)
		q[w] |= (vals[f.Out] & 1) << b
		d[w] |= (vals[f.D] & 1) << b
		c[w] |= (vals[f.Clk] & 1) << b
	}
	for w := range r.gh {
		r.gh[w] = q[w]&c[w] | r.gh[w]&^c[w]
	}
}

// bit is bit i of bitset ws.
func bit(ws []uint64, i int32) uint64 { return ws[i>>6] >> uint(i&63) & 1 }

// own panics unless r was recorded on e's program.
func (r *Recording) own(e *FaultedPacked) {
	if r.prog != e.prog {
		panic(fmt.Sprintf("engine: a recording of %s used on an evaluator of %s", r.prog.Netlist.Name, e.prog.Netlist.Name))
	}
}

// Golden reports whether every unheld lane equals lane 0 on every state
// net, every site's history register and the LFSR: whether, from here,
// such a lane differs from lane 0 only where one of its sites makes it.
func (e *FaultedPacked) Golden() bool {
	live := ^e.hold
	differs := func(w uint64) bool { return (w^-(w&1))&live != 0 }
	for _, n := range e.feeds.state {
		if differs(e.vals[n]) {
			return false
		}
	}
	for _, h := range e.hist {
		if differs(h) {
			return false
		}
	}
	for _, w := range e.lfsr {
		if differs(w) {
			return false
		}
	}
	return true
}

// Quiet reports whether no site of an unheld lane of e corrupts at
// any edge r recorded after mark k and before mark k+1: whether lanes
// that are Golden at mark k, driven with the recorded stimulus and never
// held, are all still golden at mark k+1. A site corrupts at an edge when
// its endpoint Y is clocked and what the site makes Y sample
// (faultSite.sample, Edge's rule, on each recorded bit broadcast to a
// word) differs from Y's D: exactly when Edge would stage a value other
// than lane 0's at Y.
func (e *FaultedPacked) Quiet(r *Recording, k int) bool {
	r.own(e)
	dw := r.dw
	lo, hi := int(r.first[k]), r.nedges
	if k+1 < len(r.first) {
		hi = int(r.first[k+1])
	}
	for si := range e.fp.sites {
		s := &e.fp.sites[si]
		if s.lanes&^e.hold == 0 {
			continue
		}
		h := bit(r.hist[k*dw:], s.xdff)
		l := r.lfsr[k]
		for ed := lo; ed < hi; ed++ {
			at := ed * 3 * dw
			q, d, c := r.edges[at:at+dw], r.edges[at+dw:at+2*dw], r.edges[at+2*dw:at+3*dw]
			xq, yd := bit(q, s.xdff), bit(d, s.dff)
			sampled := s.sample(-h, -xq, -bit(d, s.xdff), -yd, -uint64(l>>15))
			if bit(c, s.dff)&(sampled^-yd) != 0 {
				return false
			}
			if bit(c, s.xdff) == 1 {
				h = xq
			}
			l = l<<1 | (l>>15^l>>13^l>>12^l>>10)&1
		}
	}
	return true
}

// Restore puts every unheld lane of e at lane 0's state at mark k of r:
// every state net, the history register of every setup site, and the
// LFSR. Combinational nets follow at the next Settle.
func (e *FaultedPacked) Restore(r *Recording, k int) {
	r.own(e)
	put := func(w, b uint64) uint64 { return w&e.hold | -b&^e.hold }
	nets := r.nets[k*r.sw:]
	for j, n := range e.feeds.state {
		e.write(n, put(e.vals[n], nets[j/64]>>uint(j%64)&1))
	}
	hist := r.hist[k*r.dw:]
	for si := range e.fp.sites {
		if s := &e.fp.sites[si]; s.check == OverlaySetup && !s.same {
			e.hist[si] = put(e.hist[si], bit(hist, s.xdff))
		}
	}
	for b := range e.lfsr {
		e.lfsr[b] = put(e.lfsr[b], uint64(r.lfsr[k]>>uint(b)&1))
	}
}
