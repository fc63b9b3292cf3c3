package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"pubtac"
	"pubtac/client"
	"pubtac/internal/pub"
	"pubtac/internal/serve"
	"pubtac/internal/stats"
)

// shardedPaths are the paths every sharded-stream op analyzes, one after
// another: every input of cnt (3), fir (2), crc (2) and edn (1). Their costs
// differ by an order of magnitude, so an op is the whole sweep: the median
// of single-path latencies would fall between two paths' costs and jump
// between them from run to run.
var shardedPaths = pathsOf("cnt", "fir", "crc", "edn")

// shardedWorkers is the number of loopback worker daemons; the fabric
// splits every campaign range into one shard per worker.
const shardedWorkers = 2

type benchPath struct {
	bench *pubtac.Bench
	input pubtac.Input
}

func pathsOf(names ...string) []benchPath {
	var out []benchPath
	for _, name := range names {
		b, err := pubtac.Benchmark(name)
		if err != nil {
			panic(err) // names are registered benchmarks
		}
		for _, in := range b.Inputs {
			out = append(out, benchPath{b, in})
		}
	}
	return out
}

// sharded is sharded-stream's fixture: two worker daemons on loopback and a
// coordinator Session that shards every campaign across them, the shape of
// `pubtac -peers`. In traced runs, op 0 calls Session.AnalyzePath and every
// later op rebuilds the paths from layer calls, collecting through the same
// fabric.
type sharded struct {
	dir     string
	workers []*serve.Server
	servers []*httptest.Server
	fabric  *client.Peers
	session *pubtac.Session
	rebuild bool
	ref     [][]byte // each path's result JSON from a peer-less Session
}

func newShardedStream(ctx context.Context, cfg Config, tr *Tracer) (fixture, error) {
	if err := os.MkdirAll(cfg.TempDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.TempDir, "sharded-")
	if err != nil {
		return nil, err
	}
	s := &sharded{dir: dir, rebuild: cfg.Trace}
	if err := s.start(ctx, cfg, tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *sharded) start(ctx context.Context, cfg Config, tr *Tracer) error {
	opts := []pubtac.Option{pubtac.WithScale(cfg.scale()), pubtac.WithSeed(cfg.Seed),
		pubtac.WithStreamingEstimation(0)}
	var urls []string
	for w := 0; w < shardedWorkers; w++ {
		store, err := serve.NewStore(filepath.Join(s.dir, "worker"+strconv.Itoa(w)), 0)
		if err != nil {
			return err
		}
		srv, err := serve.New(serve.Options{Store: store, SessionOptions: opts})
		if err != nil {
			return err
		}
		s.workers = append(s.workers, srv)
		var h http.Handler = srv
		if tr != nil {
			h = handlerSpans(tr, h, func(int, http.Header) string { return "shard" })
		}
		ts := httptest.NewServer(h)
		s.servers = append(s.servers, ts)
		urls = append(urls, ts.URL)
	}
	var pcfg client.PeersConfig
	if tr != nil {
		pcfg.Transport = newSpanTransport()
	}
	s.fabric = client.NewFabric(pcfg, urls...)
	s.session = pubtac.NewSession(append(opts, pubtac.WithPeers(s.fabric))...)

	local := pubtac.NewSession(opts...)
	for _, p := range shardedPaths {
		res, err := local.AnalyzePath(ctx, p.bench.Program, p.input)
		if err != nil {
			return err
		}
		body, err := json.Marshal(res)
		if err != nil {
			return err
		}
		s.ref = append(s.ref, body)
	}
	return nil
}

func (s *sharded) op(ctx context.Context, i int, tr *Tracer) sample {
	var r *rebuild
	if s.rebuild && i > 0 {
		r = &rebuild{tr: tr, op: i, cfg: s.session.Config(), fabric: s.fabric}
	}
	root := tr.Begin(i, Root)
	t0 := time.Now()
	var smp sample
	for k, p := range shardedPaths {
		pt := time.Now()
		res, body, err := s.analyze(ctx, r, root, p)
		if err != nil {
			smp.err = fmt.Errorf("op %d: %s(%s): %w", i, p.bench.Name, p.input.Name, err)
			break
		}
		smp.parts = append(smp.parts, msSince(pt))
		smp.runs += res.RunsUsed
		if !bytes.Equal(body, s.ref[k]) {
			smp.err = fmt.Errorf("op %d: sharded %s(%s) differs from the local result",
				i, p.bench.Name, p.input.Name)
			break
		}
	}
	smp.ms = msSince(t0)
	tr.End(root, "core")
	if smp.err == nil && r != nil && tr != nil {
		smp.err = s.direct(tr, i, r.shards)
	}
	return smp
}

// analyze is Session.AnalyzePath on p, or its rebuild when r is set, and
// the result's JSON.
func (s *sharded) analyze(ctx context.Context, r *rebuild, root int, p benchPath) (*pubtac.Result, []byte, error) {
	if r == nil {
		res, err := s.session.AnalyzePath(ctx, p.bench.Program, p.input)
		if err != nil {
			return nil, nil, err
		}
		body, err := json.Marshal(res)
		return res, body, err
	}
	sp := r.tr.Begin(r.op, root)
	pubbed, rep, err := pub.Transform(p.bench.Program)
	r.tr.End(sp, "pub.transform")
	if err != nil {
		return nil, nil, err
	}
	res, err := r.path(ctx, root, p.bench.Name, pubbed, rep, p.input)
	if err != nil {
		return nil, nil, err
	}
	sp = r.tr.Begin(r.op, root)
	body, err := json.Marshal(res)
	r.tr.End(sp, "pubtac.json")
	return res, body, err
}

// direct repeats, as direct calls, what the workers did for the op's
// shards: replay the range, push it into a full summary and encode it, plus
// the decode the coordinator's client made of it. It also derives every
// path's key, as a coordinating daemon would per request.
func (s *sharded) direct(tr *Tracer, op int, shards []shardRun) error {
	for _, sh := range shards {
		runs := make([]float64, sh.spec.Runs())
		sh.c.replay(runs, sh.spec.Lo, Direct)
		if !slices.Equal(runs, sh.runs) {
			return fmt.Errorf("op %d: shard %s(%s)[%d,%d) replayed locally differs from the worker's",
				op, sh.spec.Program, sh.spec.Input, sh.spec.Lo, sh.spec.Hi)
		}
		sp := tr.Begin(op, Direct)
		sum := stats.NewFullSummary(false)
		sum.Push(runs)
		tr.End(sp, "stats.push")

		sp = tr.Begin(op, Direct)
		enc, err := stats.EncodeSummary(sum)
		tr.End(sp, "stats.encode")
		if err != nil {
			return err
		}
		tr.Add("stats.wire_bytes", float64(len(enc)))

		sp = tr.Begin(op, Direct)
		_, err = stats.DecodeSummary(enc)
		tr.End(sp, "stats.decode")
		if err != nil {
			return err
		}
	}
	for _, p := range shardedPaths {
		job := pubtac.Job{Program: p.bench.Program, Inputs: []pubtac.Input{p.input}}
		if _, err := deriveKey(tr, op, s.session, []pubtac.Job{job}); err != nil {
			return err
		}
	}
	return nil
}

// counters reports the workers' and the fabric's counters. Every dispatch
// attempt beyond a shard's first is a fabric retry or hedge, so adding
// those to the rebuild's count of CollectShard calls gives all attempts.
func (s *sharded) counters() map[string]float64 {
	c := make(map[string]float64)
	for _, w := range s.workers {
		st := w.Stats()
		c["serve.shards"] += float64(st.Shards)
		c["serve.sheds"] += float64(st.Sheds)
	}
	fs := s.fabric.Stats()
	c["client.retries"] = float64(fs.Retries)
	c["client.hedges"] = float64(fs.Hedges)
	c["client.fail_fast"] = float64(fs.FailFast)
	c["client.breaker_opens"] = float64(fs.BreakerOpens)
	c["client.shard_attempts"] = float64(fs.Retries + fs.Hedges)
	return c
}

func (s *sharded) finish() error { return nil }

func (s *sharded) digest() string {
	h := sha256.New()
	for _, b := range s.ref {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *sharded) close() {
	for _, ts := range s.servers {
		ts.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
	os.RemoveAll(s.dir)
}
