package engine

import "slices"

// Evaluated is the number of runs e's settles have evaluated so far.
func Evaluated(e *FaultedPacked) int { return e.evaluated }

// SameState reports whether two snapshots, of any lanes, hold the same
// state bits, history bits and LFSR.
func SameState(a, b Snapshot) bool {
	return slices.Equal(a.nets, b.nets) && slices.Equal(a.hists, b.hists) && a.lfsr == b.lfsr
}
