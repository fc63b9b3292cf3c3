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

// TestKeyGolden pins content-key bytes: every deployed daemon's disk tier is
// addressed by them, so a change to FingerprintProgram, JobKey or
// AnalysisKey that moves any digest below orphans every stored result.
func TestKeyGolden(t *testing.T) {
	bs, err := pubtac.Benchmark("bs")
	if err != nil {
		t.Fatal(err)
	}
	mm, err := pubtac.Benchmark("matmult")
	if err != nil {
		t.Fatal(err)
	}
	jobKey := func(j pubtac.Job, seed uint64) pubtac.Fingerprint {
		t.Helper()
		k, err := j.Key(seed)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	bsDefault := pubtac.Job{Program: bs.Program, Inputs: []pubtac.Input{bs.Default()}}
	mmDefault := pubtac.Job{Program: mm.Program, Inputs: []pubtac.Input{mm.Default()}}
	s := pubtac.NewSession()
	for _, c := range []struct {
		name string
		got  pubtac.Fingerprint
		want string
	}{
		{"bs", jobKey(bsDefault, 0), "5f606e8fa69c4366540fde6f310e65fdb32c49fc43d0008f0988960ca0ca8950"},
		{"bs-multipath", jobKey(pubtac.Job{Program: bs.Program, Inputs: bs.Inputs}, 0),
			"d152d981eb100dc8efeae5eba7bb00e9857e4d2bbfe91ae1ff3c86653aaec266"},
		{"matmult-seed7", jobKey(mmDefault, 7), "31b3ba265b14417a1b85ebafd95ec0ebf294316f027de0d87169ab26bff77609"},
		{"batch", pubtac.AnalysisKey(s.ConfigFingerprint(), jobKey(bsDefault, 0), jobKey(mmDefault, 0)),
			"5feacbd8a15c9ead84f024eae9215f3f335215801394288a84a1255e07f02b6c"},
	} {
		if got := c.got.String(); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}
