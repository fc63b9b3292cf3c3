package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pubtac"
	"pubtac/client"
	"pubtac/internal/malardalen"
	"pubtac/internal/rng"
	"pubtac/internal/serve"
)

// Request classes of daemon-mix, by how the daemon served them.
const (
	classHit        = "hit"        // store hit from the memory tier
	classDisk       = "disk"       // store hit from the disk tier
	classRevalidate = "revalidate" // GET /v1/results with a matching ETag: 304
	classCold       = "cold"       // a fresh key: computed, fsync'd, served
)

// The request mix, in thousandths: 85% analyze requests for warm keys, 14%
// revalidations, the rest (1%) cold batch requests.
const (
	mixAnalyze    = 850
	mixRevalidate = 140
)

// Daemon shape: a memory tier smaller than the 39 warm keys, so the Zipf
// tail spills to disk, and two concurrent analyses.
const (
	daemonMemEntries = 16
	daemonMaxJobs    = 2
	// daemonJobHistory bounds the finished jobs (and their progress logs)
	// the daemon keeps for /v1/jobs. It covers the warm-up's jobs; with the
	// default of 1024 the daemon's memory would grow with every cold
	// request a run happens to complete, so peak RSS would track speed.
	daemonJobHistory = 64
	zipfS            = 1.1
	// zipfRankSeed fixes which warm key holds which popularity rank. It is
	// independent of the run's seed, so every seed sees the same hot set
	// (cheap and expensive keys interleaved) and only the draws change.
	zipfRankSeed = 0x21bf
)

// coldBenches supply the 21 (bench, input) pairs cold requests are built
// from: short traces, so a cold request costs tens of milliseconds.
var coldBenches = []string{"bs", "janne", "fdct", "jfdctint"}

// warmKey is one of the 39 keys the daemon is warmed with: every
// (benchmark, input) pair, plus every multipath benchmark's full input set.
type warmKey struct {
	req  client.AnalyzeRequest
	jobs []pubtac.Job
	key  pubtac.Fingerprint
	body []byte
}

// warmRequests lists the warm keys' requests in Table 2 order: the 33
// single-input keys, then the 6 multipath keys.
func warmRequests() []client.AnalyzeRequest {
	var single, multi []client.AnalyzeRequest
	for _, b := range malardalen.All() {
		for _, in := range b.Inputs {
			single = append(single, client.AnalyzeRequest{Bench: b.Name, Input: in.Name})
		}
		if len(b.Inputs) > 1 {
			multi = append(multi, client.AnalyzeRequest{Bench: b.Name, Multipath: true})
		}
	}
	return append(single, multi...)
}

// jobsOf resolves a request's jobs the way the daemon does.
func jobsOf(req client.AnalyzeRequest) ([]pubtac.Job, error) {
	specs := req.Jobs
	if req.Bench != "" {
		spec := client.JobSpec{Bench: req.Bench, Multipath: req.Multipath}
		if req.Input != "" {
			spec.Inputs = []string{req.Input}
		}
		specs = []client.JobSpec{spec}
	}
	jobs := make([]pubtac.Job, 0, len(specs))
	for _, spec := range specs {
		b, err := pubtac.Benchmark(spec.Bench)
		if err != nil {
			return nil, err
		}
		j := pubtac.Job{Program: b.Program, Inputs: b.Inputs}
		if !spec.Multipath {
			j.Inputs = nil
			for _, name := range spec.Inputs {
				in, err := b.Input(name)
				if err != nil {
					return nil, err
				}
				j.Inputs = append(j.Inputs, in)
			}
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// daemonOp is one request of the daemon-mix sequence.
type daemonOp struct {
	kind string           // classHit (an analyze request for a warm key), classRevalidate or classCold
	key  int              // warm key index
	cold []client.JobSpec // a cold request's (bench, input) pairs, in order
}

// daemonGen draws the request sequence from the seed. Draws are sequential,
// so op i is the same request whichever client issues it.
type daemonGen struct {
	mu    sync.Mutex
	rnd   *rng.Xoshiro256
	cdf   []float64 // Zipf(s) CDF over popularity ranks
	key   []int     // popularity rank -> warm key index
	pairs []client.JobSpec
	seen  map[string]bool // cold subsets drawn so far
	// drawn counts the ops drawn; pending holds those not yet taken. Ops
	// are taken about in order, so pending stays small, and the sequence
	// costs no memory per op.
	drawn   int
	pending map[int]daemonOp
}

func newDaemonGen(seed uint64, keys int) *daemonGen {
	g := &daemonGen{
		rnd:     rng.New(seed),
		key:     rng.New(zipfRankSeed).Perm(keys),
		seen:    make(map[string]bool),
		pending: make(map[int]daemonOp),
	}
	total := 0.0
	for r := 1; r <= keys; r++ {
		total += math.Pow(float64(r), -zipfS)
		g.cdf = append(g.cdf, total)
	}
	for i := range g.cdf {
		g.cdf[i] /= total
	}
	for _, name := range coldBenches {
		b, err := malardalen.Get(name)
		if err != nil {
			panic(err) // coldBenches names registered benchmarks
		}
		for _, in := range b.Inputs {
			g.pairs = append(g.pairs, client.JobSpec{Bench: name, Inputs: []string{in.Name}})
		}
	}
	return g
}

// take returns op i, drawing the sequence up to it. Each op is taken once.
func (g *daemonGen) take(i int) daemonOp {
	g.mu.Lock()
	defer g.mu.Unlock()
	for ; g.drawn <= i; g.drawn++ {
		g.pending[g.drawn] = g.draw()
	}
	o, ok := g.pending[i]
	if !ok {
		panic(fmt.Sprintf("bench: daemon op %d taken twice", i))
	}
	delete(g.pending, i)
	return o
}

func (g *daemonGen) draw() daemonOp {
	u := g.rnd.Intn(1000)
	if u >= mixAnalyze+mixRevalidate {
		return daemonOp{kind: classCold, cold: g.freshSubset()}
	}
	kind := classHit
	if u >= mixAnalyze {
		kind = classRevalidate
	}
	rank := sort.SearchFloat64s(g.cdf, g.rnd.Float64())
	return daemonOp{kind: kind, key: g.key[min(rank, len(g.key)-1)]}
}

// freshSubset draws an ordered subset of 2 or 3 distinct pairs that no
// earlier op drew, so every cold request is a key the daemon has not seen.
// There are 8,400 such subsets, far more than a run issues.
func (g *daemonGen) freshSubset() []client.JobSpec {
	for {
		n := 2 + g.rnd.Intn(2)
		var specs []client.JobSpec
		var id []string
		for _, k := range g.rnd.Perm(len(g.pairs))[:n] {
			specs = append(specs, g.pairs[k])
			id = append(id, g.pairs[k].Bench+"/"+g.pairs[k].Inputs[0])
		}
		if s := strings.Join(id, ","); !g.seen[s] {
			g.seen[s] = true
			return specs
		}
	}
}

// daemon is daemon-mix's fixture: an in-process serve.Server behind an
// httptest loopback server, its store warmed with every warm key.
type daemon struct {
	dir     string
	session *pubtac.Session // the daemon's session configuration
	srv     *serve.Server
	ts      *httptest.Server
	http    *http.Client
	warm    []warmKey
	gen     *daemonGen
	cold    atomic.Int64 // cold requests issued

	// scratch is the store the direct calls of traced runs read and write.
	scratch *serve.Store
}

func newDaemonMix(ctx context.Context, cfg Config, tr *Tracer) (fixture, error) {
	if err := os.MkdirAll(cfg.TempDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.TempDir, "daemon-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	if err := d.start(ctx, cfg, tr); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) start(ctx context.Context, cfg Config, tr *Tracer) error {
	store, err := serve.NewStore(filepath.Join(d.dir, "store"), daemonMemEntries)
	if err != nil {
		return err
	}
	opts := []pubtac.Option{pubtac.WithScale(cfg.scale()), pubtac.WithSeed(cfg.Seed)}
	d.session = pubtac.NewSession(opts...)
	d.srv, err = serve.New(serve.Options{
		Store:          store,
		SessionOptions: opts,
		MaxJobs:        daemonMaxJobs,
		MaxJobHistory:  daemonJobHistory,
	})
	if err != nil {
		return err
	}
	var h http.Handler = d.srv
	var copts []client.Option
	if tr != nil {
		h = handlerSpans(tr, h, classOf)
		copts = append(copts, client.WithTransport(newSpanTransport()))
		if d.scratch, err = serve.NewStore(filepath.Join(d.dir, "scratch"), 1<<10); err != nil {
			return err
		}
	}
	d.ts = httptest.NewServer(h)
	d.http = client.New(d.ts.URL, copts...).HTTP

	reqs := warmRequests()
	d.gen = newDaemonGen(cfg.Seed, len(reqs))
	for _, req := range reqs {
		jobs, err := jobsOf(req)
		if err != nil {
			return err
		}
		resp, body, err := d.post(ctx, req)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warming %+v: HTTP %d: %s", req, resp.StatusCode, body)
		}
		key := resp.Header.Get(client.HeaderKey)
		if got, err := deriveKey(nil, 0, d.session, jobs); err != nil || got.String() != key {
			return fmt.Errorf("warming %+v: daemon key %s, derived %s (%v)", req, key, got, err)
		}
		w := warmKey{req: req, jobs: jobs, body: body}
		if w.key, err = pubtac.ParseFingerprint(key); err != nil {
			return err
		}
		d.warm = append(d.warm, w)
		if d.scratch != nil {
			if err := d.scratch.Put(w.key, body); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *daemon) op(ctx context.Context, i int, tr *Tracer) sample {
	o := d.gen.take(i)
	root := tr.Begin(i, Root)
	sp := tr.Begin(i, root)
	ctx = withSpan(ctx, tr, i, sp)
	t0 := time.Now()
	var resp *http.Response
	var body []byte
	var err error
	switch o.kind {
	case classRevalidate:
		resp, body, err = d.revalidate(ctx, d.warm[o.key].key)
	case classCold:
		d.cold.Add(1)
		resp, body, err = d.post(ctx, client.AnalyzeRequest{Jobs: o.cold})
	default:
		resp, body, err = d.post(ctx, d.warm[o.key].req)
	}
	s := sample{ms: msSince(t0), err: err}
	if err != nil {
		tr.End(sp, "client.http.error")
		tr.End(root, "client")
		return s
	}
	s.class = classOf(resp.StatusCode, resp.Header)
	tr.End(sp, "client.http."+s.class)
	tr.End(root, "client")
	if s.err = d.check(i, o, s.class, resp, body); s.err == nil && tr != nil {
		s.err = d.direct(ctx, tr, i, o, s.class, resp, body)
	}
	return s
}

// post submits an analyze request and waits for its result.
func (d *daemon) post(ctx context.Context, req client.AnalyzeRequest) (*http.Response, []byte, error) {
	req.Wait = true
	buf, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, d.ts.URL+"/v1/analyze", bytes.NewReader(buf))
	if err != nil {
		return nil, nil, err
	}
	r.Header.Set("Content-Type", "application/json")
	return d.do(r)
}

// revalidate asks for a stored result the caller already holds.
func (d *daemon) revalidate(ctx context.Context, key pubtac.Fingerprint) (*http.Response, []byte, error) {
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, d.ts.URL+"/v1/results/"+key.String(), nil)
	if err != nil {
		return nil, nil, err
	}
	r.Header.Set("If-None-Match", `"`+key.String()+`"`)
	return d.do(r)
}

func (d *daemon) do(r *http.Request) (*http.Response, []byte, error) {
	resp, err := d.http.Do(r)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// classOf names the class a response shows the request was served as.
func classOf(status int, h http.Header) string {
	switch {
	case status == http.StatusNotModified:
		return classRevalidate
	case h.Get(client.HeaderCache) == "miss":
		return classCold
	case h.Get(client.HeaderTier) == serve.TierDisk:
		return classDisk
	}
	return classHit
}

// check verifies one response: hits repeat the warm body byte for byte,
// revalidations are empty 304s, cold results decode and carry one path per
// requested pair.
func (d *daemon) check(i int, o daemonOp, class string, resp *http.Response, body []byte) error {
	switch o.kind {
	case classRevalidate:
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			return fmt.Errorf("op %d: revalidation got HTTP %d with %d body bytes, want an empty 304",
				i, resp.StatusCode, len(body))
		}
	case classCold:
		if resp.StatusCode != http.StatusOK || class != classCold {
			return fmt.Errorf("op %d: cold request got HTTP %d served as %s", i, resp.StatusCode, class)
		}
		br, err := pubtac.DecodeBatchResult(body)
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if got := len(br.All()); got != len(o.cold) {
			return fmt.Errorf("op %d: cold result has %d paths, want %d", i, got, len(o.cold))
		}
	default:
		if resp.StatusCode != http.StatusOK || (class != classHit && class != classDisk) {
			return fmt.Errorf("op %d: warm key %d got HTTP %d served as %s", i, o.key, resp.StatusCode, class)
		}
		if !bytes.Equal(body, d.warm[o.key].body) {
			return fmt.Errorf("op %d: warm key %d body differs from the one stored when warming", i, o.key)
		}
	}
	return nil
}

// direct repeats, as direct calls, the layer calls the daemon made inside
// its handler for an analyze request: key derivation, then a store read
// from the tier that served a hit, or for a cold request the analysis
// itself (rebuilt from layer calls, and checked against the daemon's bytes)
// and its store write, on a scratch store.
func (d *daemon) direct(ctx context.Context, tr *Tracer, op int, o daemonOp, class string,
	resp *http.Response, body []byte) error {
	if class == classRevalidate {
		return nil
	}
	var jobs []pubtac.Job
	if class == classCold {
		var err error
		if jobs, err = jobsOf(client.AnalyzeRequest{Jobs: o.cold}); err != nil {
			return err
		}
	} else {
		jobs = d.warm[o.key].jobs
	}
	key, err := deriveKey(tr, op, d.session, jobs)
	if err != nil {
		return err
	}
	if want := resp.Header.Get(client.HeaderKey); key.String() != want {
		return fmt.Errorf("op %d: derived key %s, daemon served %s", op, key, want)
	}
	switch class {
	case classHit:
		sp := tr.Begin(op, Direct)
		_, _, ok := d.scratch.Get(key)
		tr.End(sp, "serve.store_get.mem")
		if !ok {
			return fmt.Errorf("op %d: scratch store lost warm key %s", op, key)
		}
	case classDisk:
		// A fresh store has an empty memory tier, so the read goes to disk.
		fresh, err := serve.NewStore(d.scratch.Dir(), 1)
		if err != nil {
			return err
		}
		sp := tr.Begin(op, Direct)
		_, _, ok := fresh.Get(key)
		tr.End(sp, "serve.store_get.disk")
		if !ok {
			return fmt.Errorf("op %d: scratch store has no disk entry for %s", op, key)
		}
	case classCold:
		r := &rebuild{tr: tr, op: op, cfg: d.session.Config()}
		_, rebuilt, err := r.batch(ctx, Direct, jobs)
		if err != nil {
			return err
		}
		if !bytes.Equal(rebuilt, body) {
			return fmt.Errorf("op %d: rebuilt cold analysis differs from the daemon's", op)
		}
		sp := tr.Begin(op, Direct)
		err = d.scratch.Put(key, body)
		tr.End(sp, "serve.store_put")
		return err
	}
	return nil
}

// counters reports the daemon's statusz counters.
func (d *daemon) counters() map[string]float64 {
	st := d.srv.Stats()
	hits := float64(st.Store.MemHits + st.Store.DiskHits)
	return map[string]float64{
		"serve.computed":     float64(st.Computed),
		"serve.deduped":      float64(st.Deduped),
		"serve.sheds":        float64(st.Sheds),
		"serve.shards":       float64(st.Shards),
		"serve.write_errors": float64(st.Store.WriteErrors),
		"serve.corrupt":      float64(st.Store.Corrupt),
		"serve.hits":         hits,
		"serve.lookups":      hits + float64(st.Store.Misses),
	}
}

// finish checks that the daemon computed exactly the warm keys and one
// analysis per cold request: every other request was served from the store.
func (d *daemon) finish() error {
	want := uint64(len(d.warm)) + uint64(d.cold.Load())
	if got := d.srv.Stats().Computed; got != want {
		return fmt.Errorf("statusz computed = %d, want %d warm keys + %d cold requests",
			got, len(d.warm), d.cold.Load())
	}
	return nil
}

// digest hashes the warm bodies in key order: the daemon's results for the
// seed.
func (d *daemon) digest() string {
	h := sha256.New()
	for _, w := range d.warm {
		h.Write(w.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (d *daemon) close() {
	if d.ts != nil {
		d.ts.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	os.RemoveAll(d.dir)
}
