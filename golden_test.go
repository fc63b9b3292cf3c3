package pubtac_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"pubtac"
)

// TestBatchResultGolden pins the result bytes of the 11-benchmark batch in
// both estimation modes: the SHA-256 of BatchResult.JSON() at scale 0.02.
// The full-sample default and streaming at the default budget (which covers
// every fit window at this scale) must agree byte for byte; budget 64 clamps
// the fit window to the reservoir and resolves the empirical body through
// the sketch, so it pins the streaming approximations. A change to any
// digest means result bytes moved.
func TestBatchResultGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on amd64: Go may fuse multiply-adds on other architectures, which moves result bits")
	}
	jobs, err := pubtac.BenchmarkJobs()
	if err != nil {
		t.Fatal(err)
	}
	const full = "5c6eaf0b980b0dec288f3fb8747b606f38cad4abca8fe3d1491b3b92fe7aabfc"
	for _, c := range []struct {
		name string
		opts []pubtac.Option
		want string
	}{
		{"default", nil, full},
		{"streaming", []pubtac.Option{pubtac.WithStreamingEstimation(0)}, full},
		{"streaming-64", []pubtac.Option{pubtac.WithStreamingEstimation(64)}, "5b71fd08ca338261ab0defbb18459034f66dae1f95590887ae749622e53042a4"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := pubtac.NewSession(append([]pubtac.Option{pubtac.WithScale(0.02)}, c.opts...)...)
			res, err := s.AnalyzeBatch(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			b, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Fatalf("batch result digest %s, want %s", got, c.want)
			}
		})
	}
}
