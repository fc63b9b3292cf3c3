// Package good exercises the oraclepair analyzer's passing cases: both
// halves declared, and a test file naming both.
package good

// FastReplay is the optimized arm.
//
//pubtac:fastpath replay
func FastReplay(xs []int) int {
	total := 0
	for _, v := range xs {
		total += v
	}
	return total
}

// SlowReplay is the reference oracle for FastReplay.
//
//pubtac:reference replay
func SlowReplay(xs []int) int {
	total := 0
	for i := 0; i < len(xs); i++ {
		total += xs[i]
	}
	return total
}

// Accumulator is an incremental fast path declared as a type, like the
// real stats.StreamingSummary.
//
//pubtac:fastpath battery
type Accumulator struct {
	sum int
}

// OneShot is the reference oracle for Accumulator.
//
//pubtac:reference battery
func OneShot(xs []int) int {
	total := 0
	for _, v := range xs {
		total += v
	}
	return total
}
