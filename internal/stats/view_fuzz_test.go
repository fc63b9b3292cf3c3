package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"

	"pubtac/internal/rng"
)

// The flat sorted copy and the query answers the run-length views are held
// to, kept as their oracles.

// flatView is a sample sorted in view order: NaNs first (by bit pattern),
// then ascending, -0 before +0.
func flatView(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.SortFunc(s, func(a, b float64) int { return cmp.Compare(orderKey(a), orderKey(b)) })
	return s
}

// flatCountLE counts the values of xs not above x, one at a time.
func flatCountLE(xs []float64, x float64) int {
	c := 0
	for _, v := range xs {
		if !(v > x) {
			c++
		}
	}
	return c
}

// flatQuantile is the type-7 quantile read off a flat sorted copy.
func flatQuantile(xs []float64, q float64) float64 {
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// tied reports whether two values of a flat view fall in one ECDF step:
// equal, or the same NaN.
func tied(a, b float64) bool { return a == b || math.Float64bits(a) == math.Float64bits(b) }

// flatPoints is ECDF.Points on a flat view: one point per step, valued at
// the step's first value.
func flatPoints(xs []float64) []ECCDFPoint {
	var pts []ECCDFPoint
	n := len(xs)
	for i := 0; i < n; {
		j := i + 1
		for j < n && tied(xs[j], xs[i]) {
			j++
		}
		pts = append(pts, ECCDFPoint{Value: xs[i], Prob: float64(n-j) / float64(n)})
		i = j
	}
	return pts
}

// flatKS is ECDF.KSStatistic on two flat views, one value at a time.
func flatKS(a, b []float64) float64 {
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x := a[i]
		if orderKey(b[j]) < orderKey(x) {
			x = b[j]
		}
		for i < len(a) && (a[i] <= x || tied(a[i], x)) {
			i++
		}
		for j < len(b) && (b[j] <= x || tied(b[j], x)) {
			j++
		}
		if diff := math.Abs(float64(i)/float64(len(a)) - float64(j)/float64(len(b))); diff > d {
			d = diff
		}
	}
	return d
}

// flatUpperBounds is ECDF.UpperBounds on two flat samples, evaluated at
// every value of both.
func flatUpperBounds(a, b []float64, tol float64) bool {
	for _, x := range append(slices.Clone(a), b...) {
		ea := 1 - float64(flatCountLE(a, x))/float64(len(a))
		eb := 1 - float64(flatCountLE(b, x))/float64(len(b))
		if ea < eb-tol {
			return false
		}
	}
	return true
}

// samePoints reports whether two ECCDFs hold the same points, bit for bit.
func samePoints(a, b []ECCDFPoint) bool {
	return slices.EqualFunc(a, b, func(p, q ECCDFPoint) bool {
		return math.Float64bits(p.Value) == math.Float64bits(q.Value) && p.Prob == q.Prob
	})
}

// checkView holds a sorted view of n values to want, its flat view: size,
// extremes, every FromTop, the flat top tail the fit reads, CountLE at and
// between every value and at ±Inf and NaN, and quantiles.
func checkView(t *testing.T, label string, s Sorted, want []float64) {
	t.Helper()
	n := len(want)
	if s.Len() != n {
		t.Fatalf("%s: Len %d, want %d", label, s.Len(), n)
	}
	if n == 0 {
		return
	}
	if !sameBits([]float64{s.Min(), s.Max()}, []float64{want[0], want[n-1]}) {
		t.Fatalf("%s: Min, Max = %v, %v, want %v, %v", label, s.Min(), s.Max(), want[0], want[n-1])
	}
	for k := 1; k <= n; k++ {
		if got := s.FromTop(k); math.Float64bits(got) != math.Float64bits(want[n-k]) {
			t.Fatalf("%s: FromTop(%d) = %v, want %v", label, k, got, want[n-k])
		}
	}
	for _, k := range []int{0, 1, 11, topLen - 1, topLen, topLen + 1, n - 1, n, n + 1} {
		k = max(k, 0)
		got := s.Top(k)
		if m := len(got); m < min(k, n) || m > n || !sameBits(got, want[n-m:]) {
			t.Fatalf("%s: Top(%d) = %v, want a suffix of %v at least %d long", label, k, got, want, min(k, n))
		}
	}
	probes := []float64{math.Inf(-1), math.Inf(1), math.NaN()}
	for i, v := range want {
		probes = append(probes, v)
		if i > 0 {
			probes = append(probes, want[i-1]+(v-want[i-1])/2)
		}
	}
	for _, x := range probes {
		// want is sorted, NaNs first, so the values not above x lead it.
		if got, w := s.CountLE(x), sort.Search(n, func(i int) bool { return want[i] > x }); got != w {
			t.Fatalf("%s: CountLE(%v) = %d, want %d", label, x, got, w)
		}
	}
	for _, q := range []float64{0, 1e-3, 0.25, 0.5, 0.5 + 1e-9, 0.75, 0.999, 1} {
		// Interpolating between NaNs yields a NaN whose payload the
		// compiler's operand order picks, so any NaN answers a NaN.
		if got, w := s.Quantile(q), flatQuantile(want, q); math.Float64bits(got) != math.Float64bits(w) && !(got != got && w != w) {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", label, q, got, w)
		}
	}
}

// FuzzCompactViewMatchesFlat holds the run-length sorted views to a flat
// sorted copy kept in the test, on fuzzed samples with heavy ties, ±0 and
// NaN:
//
//   - the views of SortedCopy, of a NewFullSummary(true) fed the sample in
//     fuzzed chunks, and (NaN-free samples only: its sketch cannot take a
//     NaN) of a streaming summary whose reservoir holds the whole sample,
//     answer Len, Min, Max, FromTop for every k, Top (the
//     fit's flat top tail), CountLE at and between every value, and
//     quantiles as the flat copy does, bit for bit;
//   - ECDF.Points, KSStatistic (first half against the rest) and
//     UpperBounds equal their flat walks;
//   - on NaN-free samples, the full summary's IID equals the one-pass
//     battery it replaced: runs (RunsTestMedian at the flat median) and KS
//     (linearKSFirstVsRest) bit for bit, and Ljung-Box the report of a
//     whole-sample fold, bit for bit; and it matches CheckIID of the
//     decoded Sample under TestIIDStateMatchesCheckIID's tolerance;
//   - a view taken before each push is unchanged after it, and Sample
//     decodes the sample bit for bit.
//
// levels is the number of distinct values (0: continuous values, nearly
// all distinct), so small levels give long tie runs. Bit 0 of special mixes
// in ±0 and bit 1 NaN of two payloads. The leading values come from data,
// the rest from a generator seeded with seed; the first push takes first
// runs when first > 0, then chunk runs at a time.
func FuzzCompactViewMatchesFlat(f *testing.F) {
	for _, levels := range []uint8{0, 1, 2, 9, 255} {
		for _, n := range []uint16{0, 1, 5, 257, 3000} {
			for special := uint8(0); special < 4; special++ {
				f.Add(uint64(n)+uint64(levels), n, levels, special, uint16(n/3+1), uint16(0), []byte(nil))
			}
		}
	}
	f.Add(uint64(1), uint16(600), uint8(3), uint8(1), uint16(64), uint16(7), []byte{0, 0, 1, 2, 2, 2})
	f.Add(uint64(2), uint16(300), uint8(0), uint8(3), uint16(1), uint16(0), []byte(nil))
	f.Add(uint64(3), uint16(2000), uint8(40), uint8(1), uint16(999), uint16(1001), []byte(nil))

	f.Fuzz(func(t *testing.T, seed uint64, size uint16, levels, special uint8, chunk, first uint16, data []byte) {
		gen := rng.New(seed)
		nan := [2]float64{math.NaN(), math.Float64frombits(0xFFF8000000000001)}
		xs := make([]float64, int(size)%3001)
		for i := range xs {
			switch {
			case i < len(data):
				xs[i] = 40000 + float64(int(data[i])%max(int(levels), 1))
			case levels == 0:
				xs[i] = 40000 + gen.Float64()*1e4
			default:
				xs[i] = 40000 + math.Floor(gen.Float64()*float64(levels))
			}
			switch {
			case special&1 != 0 && i%5 == 0:
				xs[i] = math.Copysign(0, float64(i%2)-0.5)
			case special&2 != 0 && i%11 == 0:
				xs[i] = nan[i%2]
			}
		}
		n := len(xs)
		want := flatView(xs)

		checkView(t, "SortedCopy", SortedCopy(xs), want)

		// The streaming arm takes the NaN-free samples only: its sketch
		// cannot bucket a NaN.
		hasNaN := slices.ContainsFunc(xs, func(v float64) bool { return v != v })
		full := NewFullSummary(true)
		stream := NewStreamingSummary(max(n, MinStreamBudget))
		step := max(int(chunk), 1)
		for lo, k := 0, 0; lo < n; k++ {
			hi := min(lo+step, n)
			if k == 0 && first > 0 {
				hi = min(int(first), n)
			}
			before := full.View()
			was := readView(before)
			full.Push(xs[lo:hi])
			if !hasNaN {
				stream.Push(xs[lo:hi])
			}
			if now := readView(before); !now.equal(was) {
				t.Fatalf("push of runs %d..%d changed an earlier view: %+v, was %+v", lo, hi, now, was)
			}
			if k < 4 || hi == n {
				if got := flat(full.View().TailSorted()); !sameBits(got, flatView(xs[:hi])) {
					t.Fatalf("after the push of runs %d..%d the full summary's view holds %v", lo, hi, got)
				}
			}
			lo = hi
		}
		checkView(t, "full summary", full.View().TailSorted(), want)
		if !hasNaN {
			checkView(t, "streaming reservoir", stream.View().TailSorted(), want)
		}
		if got := full.Sample(); !sameBits(got, xs) {
			t.Fatalf("Sample decodes %v, want %v", got, xs)
		}
		if n == 0 {
			return
		}

		e := full.View().(*ECDF)
		if got, w := e.Points(), flatPoints(want); !samePoints(got, w) {
			t.Fatalf("Points = %v, want %v", got, w)
		}
		if h := n / 2; h > 0 {
			a, b := NewECDF(xs[:h]), NewECDF(xs[h:])
			if got, w := a.KSStatistic(b), flatKS(flatView(xs[:h]), flatView(xs[h:])); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("KSStatistic = %v, want %v", got, w)
			}
			for _, tol := range []float64{0, 0.05} {
				if got, w := a.UpperBounds(b, tol), flatUpperBounds(xs[:h], xs[h:], tol); got != w {
					t.Fatalf("UpperBounds(tol %v) = %v, want %v", tol, got, w)
				}
			}
		}

		if hasNaN {
			return
		}
		got := full.IID()
		if w := RunsTestMedian(xs, flatQuantile(want, 0.5)); !sameResult(got.Runs, w) {
			t.Fatalf("runs %+v, one-pass battery's %+v", got.Runs, w)
		}
		if h := n / 2; n >= 4 {
			w := ksResult(linearKSFirstVsRest(want, flatView(xs[:h])), h, n-h)
			if !sameResult(got.Identical, w) {
				t.Fatalf("identical %+v, one-pass battery's %+v", got.Identical, w)
			}
		}
		var whole ljungBoxSums
		refLjungBoxPush(&whole, xs)
		if w := whole.report(func() []float64 { return xs }); !sameResult(got.LjungBox, w) {
			t.Fatalf("ljung-box %+v, whole-sample fold's %+v", got.LjungBox, w)
		}
		ref := CheckIID(full.Sample())
		if !sameResult(got.Runs, ref.Runs) || !sameResult(got.Identical, ref.Identical) || !closeResult(got.LjungBox, ref.LjungBox, 1e-8) {
			t.Fatalf("IID %+v, CheckIID %+v", got, ref)
		}
	})
}
