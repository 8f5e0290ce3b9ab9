package engine

// Evaluated is the number of runs e's settles have evaluated so far.
func Evaluated(e *FaultedPacked) int { return e.evaluated }
