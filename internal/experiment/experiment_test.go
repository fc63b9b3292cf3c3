package experiment

import (
	"context"
	"testing"

	"pubtac/internal/core"
	"pubtac/internal/stats"
)

// tinyOpts keeps experiment tests fast.
func tinyOpts() Options { return Options{Scale: 0.004} }

// long marks a test that regenerates full tables/figures; in -short mode
// those are covered by the TestSmoke fast path instead.
func long(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("long experiment regeneration; TestSmoke covers -short")
	}
}

// TestSmoke is the -short fast path: one multipath benchmark through every
// generator family (table, figure, analytic) at the smallest usable scale,
// so CI exercises the full plumbing in about a second.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	opts := Options{Scale: 0.002}

	rows, err := Table1(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("table1 rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.RPTK < r.RPubK || r.PWCETPT <= 0 {
			t.Fatalf("table1 implausible row: %+v", r)
		}
	}

	series, err := Figure1(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || len(series[0].Points) == 0 {
		t.Fatalf("figure1 series malformed: %d", len(series))
	}

	r31, err := Section31()
	if err != nil {
		t.Fatal(err)
	}
	if r31.RPub311 != 84873 {
		t.Fatalf("section 3.1 runs = %d, want 84873", r31.RPub311)
	}
}

func TestSection31MatchesPaper(t *testing.T) {
	r, err := Section31()
	if err != nil {
		t.Fatal(err)
	}
	if r.ROrig311 != 0 {
		t.Errorf("3.1.1 orig runs = %d, want 0", r.ROrig311)
	}
	if r.RPub311 != 84873 {
		t.Errorf("3.1.1 pubbed runs = %d, want 84873 (paper: 84875)", r.RPub311)
	}
	if r.RPub312 != 14137 {
		t.Errorf("3.1.2 pubbed runs = %d, want 14137 (paper: 14138)", r.RPub312)
	}
	if !(r.ROrig311 < r.RPub311) || !(r.ROrig312 > r.RPub312) {
		t.Error("Section 3.1 orderings violated")
	}
}

func TestTable1ShapeAndProperties(t *testing.T) {
	long(t)
	rows, err := Table1(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.RPTK < r.RPubK {
			t.Errorf("%s: Rp+t (%vk) below Rpub (%vk)", r.Input, r.RPTK, r.RPubK)
		}
		if r.PWCETPub <= 0 || r.PWCETPT <= 0 {
			t.Errorf("%s: non-positive pWCET", r.Input)
		}
	}
}

func TestTable2ShapeAndProperties(t *testing.T) {
	long(t)
	rows, err := Table2(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Benchmark] = true
		if r.RPTK < r.RPubK {
			t.Errorf("%s: Rp+t < Rpub", r.Benchmark)
		}
		if r.ROrigK <= 0 || r.RPubK <= 0 {
			t.Errorf("%s: non-positive run counts", r.Benchmark)
		}
	}
	if !seen["bs"] || !seen["crc"] || !seen["ns"] {
		t.Fatalf("missing benchmarks: %v", seen)
	}
}

func TestFigure1Shapes(t *testing.T) {
	long(t)
	series, err := Figure1(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	etd, curve := series[0], series[1]
	if len(etd.Points) == 0 || len(curve.Points) == 0 {
		t.Fatal("empty series")
	}
	// The pWCET curve upper-bounds the pETd at matching probabilities.
	for i, pt := range etd.Points {
		if pt.Prob == 0 {
			continue
		}
		if i < len(curve.Points) && curve.Points[i].Value < pt.Value {
			t.Fatalf("pWCET (%v) below pETd (%v) at prob %v",
				curve.Points[i].Value, pt.Value, pt.Prob)
		}
	}
}

func TestFigure2PubbedUpperBounds(t *testing.T) {
	long(t)
	series, err := Figure2(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 16 {
		t.Fatalf("series = %d, want 16 (8 orig + 8 pub)", len(series))
	}
	// Max observed execution time across original paths must not exceed
	// max across pubbed paths.
	maxOf := func(s Series) float64 {
		m := 0.0
		for _, p := range s.Points {
			if p.Value > m {
				m = p.Value
			}
		}
		return m
	}
	var origMax, pubMin float64
	pubMin = 1e18
	for _, s := range series[:8] {
		if v := maxOf(s); v > origMax {
			origMax = v
		}
	}
	for _, s := range series[8:] {
		if v := maxOf(s); v < pubMin {
			pubMin = v
		}
	}
	if pubMin < origMax*0.8 {
		t.Fatalf("pubbed path max (%v) far below original max (%v)", pubMin, origMax)
	}
}

func TestFigure4KneeCapture(t *testing.T) {
	long(t)
	res, err := Figure4(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.RPT < res.RPub {
		t.Fatalf("RPT (%d) < RPub (%d)", res.RPT, res.RPub)
	}
	if len(res.Reference.Points) == 0 {
		t.Fatal("empty reference ECCDF")
	}
	// The P+T curve must upper-bound the reference ECCDF's maximum at deep
	// probabilities.
	refMax := 0.0
	for _, p := range res.Reference.Points {
		if p.Value > refMax {
			refMax = p.Value
		}
	}
	ptDeep := res.PTCurve.Points[len(res.PTCurve.Points)-1].Value
	if ptDeep < refMax*0.95 {
		t.Fatalf("P+T deep pWCET (%v) below reference max (%v)", ptDeep, refMax)
	}
}

func TestFigure5Categories(t *testing.T) {
	long(t)
	rows, err := Figure5(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Figure5Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		if r.PubRatio <= 0 || r.PTRatio <= 0 {
			t.Errorf("%s: non-positive ratio", r.Benchmark)
		}
	}
	// Single-path benchmarks: PUB is exactly innocuous — identical traces
	// and matched campaign seeds give ratio 1.0 up to rounding.
	for _, n := range []string{"edn", "insertsort", "jfdctint", "matmult", "fdct", "ns"} {
		if r := byName[n].PubRatio; r < 0.99 || r > 1.01 {
			t.Errorf("%s: single-path PUB ratio = %v, want 1.0", n, r)
		}
	}
	// crc: the default input misses the worst path; PUB must increase the
	// estimate (the magnitude — 4.4x in the paper — depends on campaign
	// scale).
	if r := byName["crc"].PubRatio; r < 1.02 {
		t.Errorf("crc: PUB ratio = %v, want > 1 (paper: 4.4x)", r)
	}
	// Multipath benchmarks whose worst path is exercised: PUB pessimism is
	// bounded; at the tiny test scale deep-tail extrapolation noise allows
	// a wide band (paper: +4%..59% at full scale).
	for _, n := range []string{"bs", "cnt", "fir", "janne"} {
		if r := byName[n].PubRatio; r < 0.7 || r > 5.0 {
			t.Errorf("%s: PUB ratio = %v, outside plausible band", n, r)
		}
	}
	// TAC on top of PUB never lowers the run requirement; its pWCET effect
	// can go either way (ns decreases in the paper) but stays finite.
	for _, r := range rows {
		if r.PTRatio < 0.4 || r.PTRatio > 20 {
			t.Errorf("%s: P+T ratio = %v implausible", r.Benchmark, r.PTRatio)
		}
	}
}

// The generators size their campaigns through core.ScaledRuns, the rule
// behind core.Config.Scaled.
func TestScaledMinimums(t *testing.T) {
	if core.ScaledRuns(1000000, 0.0001, 500) < 500 {
		t.Fatal("ScaledRuns must respect the minimum")
	}
	if got := core.ScaledRuns(1000, 1, 1); got != 1000 {
		t.Fatalf("ScaledRuns at 1.0 = %d", got)
	}
}

// TestCheckScaleBoundsLargestCampaign: CheckScale refuses every scale at
// which Figure 4's 6×10^6-run reference overflows an int, including scales
// core.CheckScale accepts (it bounds only the 7×10^5-run campaign), and at
// every scale it accepts the reference scales to at least its rounded
// product.
func TestCheckScaleBoundsLargestCampaign(t *testing.T) {
	if err := core.CheckScale(2e12); err != nil {
		t.Fatalf("core.CheckScale(2e12) = %v, want nil", err)
	}
	if err := CheckScale(2e12); err == nil {
		t.Fatal("CheckScale(2e12) accepted a scale at which Figure 4's reference overflows an int")
	}
	for _, s := range []float64{0.004, 1, 1e12} {
		if err := CheckScale(s); err != nil {
			t.Errorf("CheckScale(%v) = %v, want nil", s, err)
		}
		if got, want := core.ScaledRuns(figure4RefRuns, s, 20000), float64(figure4RefRuns)*s; float64(got) < want-0.5 {
			t.Errorf("scale %v: reference campaign of %d runs, want about %v", s, got, want)
		}
	}
}

func TestSeriesUsableByECDF(t *testing.T) {
	long(t)
	// Sanity: series probabilities are monotone non-increasing in value.
	series, err := Figure1(context.Background(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series[:1] {
		var prev *stats.ECCDFPoint
		for i := range s.Points {
			p := s.Points[i]
			if prev != nil && p.Value > prev.Value && p.Prob > prev.Prob {
				t.Fatalf("%s: non-monotone ECCDF", s.Name)
			}
			prev = &p
		}
	}
}
