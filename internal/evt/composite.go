package evt

import (
	"pubtac/internal/stats"
)

// Composite is the standard MBPTA pWCET curve shape: within the measured
// range the curve follows the empirical ECCDF (never reporting a bound below
// an observed quantile), and beyond it the fitted EVT tail extrapolates. It
// is the pointwise maximum of the two survival curves, which keeps it a
// valid (monotone) survival function and guarantees the pWCET estimate
// upper-bounds the whole measured sample.
type Composite struct {
	Emp  *stats.ECDF
	Tail Curve
}

// NewComposite builds the composite curve over sample with the given fitted
// tail.
func NewComposite(sample []float64, tail Curve) *Composite {
	return &Composite{Emp: stats.NewECDF(sample), Tail: tail}
}

// empValueAt returns the smallest observed value whose empirical exceedance
// probability is at most p.
func (c *Composite) empValueAt(p float64) float64 {
	s := c.Emp.Sorted()
	n := len(s)
	// k = number of sample points allowed to exceed the bound.
	k := int(p * float64(n))
	if k < 1 {
		return s[n-1]
	}
	if k >= n {
		return s[0]
	}
	return s[n-k]
}

// ValueAt returns the pWCET estimate at per-run exceedance probability p:
// the maximum of the empirical quantile and the fitted tail.
func (c *Composite) ValueAt(p float64) float64 {
	emp := c.empValueAt(p)
	tail := c.Tail.ValueAt(p)
	if emp > tail {
		return emp
	}
	return tail
}

// ExceedanceOf returns the modelled per-run exceedance probability of x,
// the maximum of the empirical and fitted exceedances.
func (c *Composite) ExceedanceOf(x float64) float64 {
	emp := c.Emp.Exceedance(x)
	tail := c.Tail.ExceedanceOf(x)
	if emp > tail {
		return emp
	}
	return tail
}
