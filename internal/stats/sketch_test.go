package stats

import (
	"math"
	"sort"
	"testing"

	"pubtac/internal/rng"
)

// TestSketchExactMode: while the distinct-value count fits the budget the
// sketch is a plain frequency table — quantiles reproduce QuantileSorted bit
// for bit and rank counts are exact.
func TestSketchExactMode(t *testing.T) {
	gen := rng.New(5)
	sk := NewQuantileSketch(256)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = math.Floor(gen.Float64()*200) + 40000
	}
	for lo := 0; lo < len(xs); lo += 700 {
		hi := lo + 700
		if hi > len(xs) {
			hi = len(xs)
		}
		sk.Push(xs[lo:hi])
	}
	if sk.Step() != 0 {
		t.Fatalf("200 distinct values under budget 256 should stay exact, step=%v", sk.Step())
	}
	sorted := SortedCopy(xs)
	for _, q := range []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1} {
		if got, want := sk.Quantile(q), QuantileSorted(sorted, q); got != want {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	for _, x := range []float64{39999, 40000, 40100.5, 40199, 50000} {
		want := sort.SearchFloat64s(flat(sorted), x+0.5) // integer grid: count <= x
		if got := sk.CountLE(x); got != want {
			t.Fatalf("CountLE(%v) = %d, want %d", x, got, want)
		}
	}
}

// TestSketchCoarseningErrorBound: past the budget the sketch coarsens to the
// canonical power-of-two step, which stays under 2·span/(budget-1), and
// every quantile lands within one step of the exact value.
func TestSketchCoarseningErrorBound(t *testing.T) {
	gen := rng.New(9)
	const budget = 128
	sk := NewQuantileSketch(budget)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = gen.Float64() * 1e6 // continuous: far more distinct values than buckets
	}
	for lo := 0; lo < len(xs); lo += 4096 {
		hi := lo + 4096
		if hi > len(xs) {
			hi = len(xs)
		}
		sk.Push(xs[lo:hi])
	}
	sorted := SortedCopy(xs)
	span := sorted.Max() - sorted.Min()
	step := sk.Step()
	if step <= 0 {
		t.Fatal("sketch should have coarsened")
	}
	if bound := 2 * span / float64(budget-1); step >= bound {
		t.Fatalf("step %v >= documented bound %v", step, bound)
	}
	if sk.Buckets() > budget {
		t.Fatalf("bucket count %d exceeds budget %d", sk.Buckets(), budget)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
		got, want := sk.Quantile(q), QuantileSorted(sorted, q)
		if math.Abs(got-want) > step {
			t.Fatalf("Quantile(%v) = %v, exact %v: off by %v > step %v", q, got, want, got-want, step)
		}
	}
}

// TestSketchMergeAssociative: the coarsened sketch is chunking-invariant —
// the canonical step rule makes one Push of the concatenated stream and
// three Pushes of its parts identical bucket for bucket.
func TestSketchMergeAssociative(t *testing.T) {
	gen := rng.New(13)
	const budget = 64
	mk := func(n int, scale, base float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = gen.Float64()*scale + base
		}
		return xs
	}
	xa := mk(3000, 1e5, 0)
	xb := mk(2000, 1e3, 5e5) // disjoint range: the later pushes must rebin
	xc := mk(1000, 1e6, -2e5)

	x := NewQuantileSketch(budget)
	x.Push(append(append(append([]float64(nil), xa...), xb...), xc...))
	y := NewQuantileSketch(budget)
	y.Push(xa)
	y.Push(xb)
	y.Push(xc)

	if x.Step() == 0 {
		t.Fatal("sketch should have coarsened")
	}
	if x.N() != y.N() || x.Step() != y.Step() || x.Buckets() != y.Buckets() {
		t.Fatalf("shape (%d,%v,%d) != (%d,%v,%d)",
			x.N(), x.Step(), x.Buckets(), y.N(), y.Step(), y.Buckets())
	}
	for i := range x.vals {
		if x.vals[i] != y.vals[i] || x.counts[i] != y.counts[i] {
			t.Fatalf("bucket %d: (%v,%d) != (%v,%d)", i, x.vals[i], x.counts[i], y.vals[i], y.counts[i])
		}
	}
}

// TestSketchDegenerate covers empty and constant sketches.
func TestSketchDegenerate(t *testing.T) {
	sk := NewQuantileSketch(64)
	if sk.N() != 0 || sk.Bytes() <= 0 {
		t.Fatalf("empty sketch: n=%d bytes=%d", sk.N(), sk.Bytes())
	}
	sk.Push([]float64{7, 7, 7, 7})
	if sk.Quantile(0) != 7 || sk.Quantile(0.5) != 7 || sk.Quantile(1) != 7 {
		t.Fatalf("constant sketch quantiles broken")
	}
	if sk.CountLE(6.9) != 0 || sk.CountLE(7) != 4 {
		t.Fatalf("constant sketch counts broken")
	}
}
