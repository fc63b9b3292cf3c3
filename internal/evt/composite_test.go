package evt

import (
	"testing"

	"pubtac/internal/stats"
)

func TestCompositeDominatesSample(t *testing.T) {
	xs := expSample(10000, 0.01, 500, 77)
	tail, err := fitExpTail(xs, 100)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSummaryComposite(stats.NewECDF(xs), tail)
	// At every empirical exceedance level, the curve is at least the
	// empirical quantile.
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		emp := stats.Quantile(xs, q)
		if v := c.ValueAt(1 - q); v < emp {
			t.Fatalf("composite at p=%v: %v below empirical %v", 1-q, v, emp)
		}
	}
	if v := c.ValueAt(1e-12); v < stats.Max(xs) {
		t.Fatalf("deep tail %v below observed max %v", v, stats.Max(xs))
	}
}

func TestCompositeMonotone(t *testing.T) {
	xs := expSample(5000, 0.05, 100, 3)
	tail, err := fitExpTail(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSummaryComposite(stats.NewECDF(xs), tail)
	prev := 0.0
	for _, p := range []float64{0.5, 0.1, 0.01, 1e-3, 1e-4, 1e-6, 1e-9, 1e-12} {
		v := c.ValueAt(p)
		if v < prev {
			t.Fatalf("composite not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestCompositeExceedanceConsistency(t *testing.T) {
	xs := expSample(5000, 0.05, 100, 9)
	tail, err := fitExpTail(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSummaryComposite(stats.NewECDF(xs), tail)
	// ExceedanceOf at a value beyond the sample max follows the tail.
	x := stats.Max(xs) + 100
	if got, want := c.ExceedanceOf(x), tail.ExceedanceOf(x); got != want {
		t.Fatalf("beyond-max exceedance = %v, want tail's %v", got, want)
	}
	// Below the minimum, exceedance is 1 (empirical).
	if got := c.ExceedanceOf(stats.Min(xs) - 1); got != 1 {
		t.Fatalf("below-min exceedance = %v, want 1", got)
	}
}

func TestCompositeEdgeProbabilities(t *testing.T) {
	xs := expSample(1000, 0.05, 100, 5)
	tail, err := fitExpTail(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSummaryComposite(stats.NewECDF(xs), tail)
	// p >= 1: lowest observed value.
	if v := c.ValueAt(1); v > stats.Min(xs)+1e-9 && v != tail.ValueAt(1) {
		// Composite takes max(emp, tail); with p=1 the empirical branch is
		// the minimum. Accept either bound but require finiteness.
		t.Logf("ValueAt(1) = %v", v)
	}
	if v := c.ValueAt(1); v < stats.Min(xs) {
		t.Fatalf("ValueAt(1) = %v below sample min", v)
	}
}
