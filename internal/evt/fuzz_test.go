package evt

import (
	"testing"

	"pubtac/internal/rng"
	"pubtac/internal/stats"
)

// curveProbes are the exceedance probabilities a serialized pWCET curve is
// sampled at.
var curveProbes = []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12}

// FuzzSummaryViewsMatch carries the summary oracle pair down to the pWCET
// curve. The fuzz arguments pick a streaming budget in [64, 574], a push
// chunk size, a grid spacing and up to 5·(budget-1) values on at most 64
// grid points. The reservoir then covers the auto-fit window (n/5 <=
// budget-1) and the sketch stays exact: the regime in which the streaming
// arm promises bit-identity with the full sample. The full view, the
// streaming view and a plain ECDF of the sample must agree on every rank
// query; the tail fit, its CV test and the composite curve at every probe
// must be bit-identical between the two summaries' views, or both fits
// must fail.
func FuzzSummaryViewsMatch(f *testing.F) {
	gen := rng.New(0x5EED)
	grid := func(n, points int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(gen.Intn(points))
		}
		return b
	}
	f.Add(uint16(0), uint8(6), uint8(4), uint8(8), grid(50, 5))          // small sample, minimum budget
	f.Add(uint16(0), uint8(99), uint8(63), uint8(0), grid(315, 64))      // reservoir exactly covers the window
	f.Add(uint16(510), uint8(199), uint8(63), uint8(13), grid(2000, 64)) // maximum budget, many chunks
	f.Add(uint16(136), uint8(255), uint8(0), uint8(0), grid(300, 1))     // constant sample
	f.Add(uint16(7), uint8(2), uint8(1), uint8(40), grid(400, 2))        // two values, tie-heavy tail
	f.Add(uint16(1), uint8(0), uint8(9), uint8(3), grid(19, 10))         // too small to fit
	f.Fuzz(func(t *testing.T, budgetSel uint16, chunkSel, gridSel, spacingSel uint8, data []byte) {
		budget := stats.MinStreamBudget + int(budgetSel)%511
		chunk := 1 + int(chunkSel)
		points := 1 + int(gridSel)%64
		spacing := 1 + float64(spacingSel)/8
		n := min(len(data), 5*(budget-1))
		if n == 0 {
			return
		}
		at := func(j int) float64 { return 40000 + float64(j)*spacing }
		xs := make([]float64, n)
		for i, b := range data[:n] {
			xs[i] = at(int(b) % points)
		}
		full := stats.NewFullSummary(true)
		stream := stats.NewStreamingSummary(budget)
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			full.Push(xs[lo:hi])
			stream.Push(xs[lo:hi])
		}
		vf, vs := full.View(), stream.View()

		// Property 1: every view answers every rank query alike.
		for name, v := range map[string]stats.SampleView{"streaming": vs, "ecdf": stats.NewECDF(xs)} {
			if v.N() != vf.N() || v.Min() != vf.Min() || v.Max() != vf.Max() {
				t.Fatalf("budget %d: %s view (n %d, %v..%v), full (n %d, %v..%v)",
					budget, name, v.N(), v.Min(), v.Max(), vf.N(), vf.Min(), vf.Max())
			}
			for k := 1; ; k *= 2 {
				k = min(k, n)
				if v.FromTop(k) != vf.FromTop(k) {
					t.Fatalf("budget %d: %s FromTop(%d) = %v, full %v", budget, name, k, v.FromTop(k), vf.FromTop(k))
				}
				if k == n {
					break
				}
			}
			for j := -1; j <= points; j++ {
				for _, x := range []float64{at(j), at(j) + spacing/2} {
					if v.CountLE(x) != vf.CountLE(x) {
						t.Fatalf("budget %d: %s CountLE(%v) = %d, full %d", budget, name, x, v.CountLE(x), vf.CountLE(x))
					}
				}
			}
		}

		// Property 2: the fit and the curve production ships are
		// bit-identical. minTail 10 is mbpta's default TailCount.
		fitF, cvF, errF := FitExpTailAutoSummary(vf, 10, n/5)
		fitS, cvS, errS := FitExpTailAutoSummary(vs, 10, n/5)
		if (errF == nil) != (errS == nil) {
			t.Fatalf("budget %d n %d: full fit error %v, streaming %v", budget, n, errF, errS)
		}
		if errF != nil {
			return
		}
		if *fitF != *fitS || cvF != cvS {
			t.Fatalf("budget %d n %d: full fit %+v %+v, streaming %+v %+v", budget, n, fitF, cvF, fitS, cvS)
		}
		curveF, curveS := NewSummaryComposite(vf, fitF), NewSummaryComposite(vs, fitS)
		for _, p := range curveProbes {
			if a, b := curveF.ValueAt(p), curveS.ValueAt(p); a != b {
				t.Fatalf("budget %d n %d: ValueAt(%g) full %v, streaming %v", budget, n, p, a, b)
			}
		}
	})
}
