package evt

import (
	"pubtac/internal/stats"
)

// SummaryComposite is the standard MBPTA pWCET curve shape over a
// stats.SampleView: within the measured range the curve follows the
// empirical ECCDF (never reporting a bound below an observed quantile), and
// beyond it the fitted EVT tail extrapolates. It is the pointwise maximum of
// the two survival curves, which keeps it a valid (monotone) survival
// function and guarantees the pWCET estimate upper-bounds the whole measured
// sample. On the full sample's view (a *stats.ECDF) every empirical query is
// exact; on a streaming view the empirical half resolves through the
// reservoir for the tail and the sketch for the body.
type SummaryComposite struct {
	V    stats.SampleView
	Tail Curve
}

// NewSummaryComposite builds the composite curve over a sample view with the
// given fitted tail.
func NewSummaryComposite(v stats.SampleView, tail Curve) *SummaryComposite {
	return &SummaryComposite{V: v, Tail: tail}
}

// empValueAt returns the smallest observed value whose empirical exceedance
// probability is at most p.
func (c *SummaryComposite) empValueAt(p float64) float64 {
	n := c.V.N()
	// k = number of sample points allowed to exceed the bound.
	k := int(p * float64(n))
	if k < 1 {
		return c.V.FromTop(1)
	}
	if k >= n {
		return c.V.Min()
	}
	return c.V.FromTop(k)
}

// ValueAt returns the pWCET estimate at per-run exceedance probability p:
// the maximum of the empirical quantile and the fitted tail.
func (c *SummaryComposite) ValueAt(p float64) float64 {
	emp := c.empValueAt(p)
	tail := c.Tail.ValueAt(p)
	if emp > tail {
		return emp
	}
	return tail
}

// ExceedanceOf returns the modelled per-run exceedance probability of x,
// the maximum of the empirical and fitted exceedances.
func (c *SummaryComposite) ExceedanceOf(x float64) float64 {
	emp := 1 - float64(c.V.CountLE(x))/float64(c.V.N())
	tail := c.Tail.ExceedanceOf(x)
	if emp > tail {
		return emp
	}
	return tail
}
