package engine

import "slices"

// Evaluated is the number of runs e's settles have evaluated so far.
func Evaluated(e *FaultedPacked) int { return e.evaluated }

// LaneState is lane's bit of every state net, of every site's history
// register and of its LFSR, in that order: all a lane keeps from one
// clock edge to the next.
func LaneState(e *FaultedPacked, lane int) []bool {
	var s []bool
	for _, n := range e.feeds.state {
		s = append(s, e.vals[n]>>uint(lane)&1 == 1)
	}
	for _, w := range slices.Concat(e.hist, e.lfsr[:]) {
		s = append(s, w>>uint(lane)&1 == 1)
	}
	return s
}
