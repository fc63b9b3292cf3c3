package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"pubtac"
	"pubtac/client"
	"pubtac/internal/mbpta"
	"pubtac/internal/pool"
	"pubtac/internal/stats"
)

// Options configures a Server.
type Options struct {
	// Store is the content-addressed result store (required).
	Store *Store
	// SessionOptions are applied to the session of every analysis job; they
	// fix the daemon's pipeline configuration (scale, model, seed,
	// streaming, workers). The resolved configuration's fingerprint is half
	// of every cache key, so two daemons with equal session options (modulo
	// worker counts and sharding) serve each other's stores. A
	// pubtac.WithPeers option makes the daemon a campaign coordinator whose
	// results, and so cache keys, are bit-identical to an unsharded
	// daemon's; when its collector is a *client.Peers fabric, statusz
	// reports it.
	SessionOptions []pubtac.Option
	// MaxJobs bounds concurrently computing analyses; further submissions
	// queue. 0 selects 2. Each job internally parallelizes across the
	// session worker budget, so a small number keeps the machine busy.
	MaxJobs int
	// MaxJobHistory bounds completed jobs retained for /v1/jobs queries
	// (their results stay addressable through the store forever). 0
	// selects 1024.
	MaxJobHistory int
	// ShardDeadline bounds one POST /v1/shards computation; shards that
	// exceed it fail with 503 and the coordinator retries elsewhere or
	// recomputes locally (0 = no deadline).
	ShardDeadline time.Duration
}

// Server is the pubtacd HTTP handler: job submission over the Session API
// with singleflight deduplication, SSE progress streams, and the two-tier
// result store. Construct with New, serve it as an http.Handler, and Close
// it on shutdown.
type Server struct {
	mux      *http.ServeMux
	store    *Store
	baseOpts []pubtac.Option
	cfg      pubtac.Config // resolved session config (shard verification)
	cfgFP    pubtac.Fingerprint
	table    registry // requests and shard specs resolve through it

	// Worker side of distributed sharding: shardSem bounds concurrently
	// computing shards (same budget as jobs).
	shardSem      chan struct{}
	shardDeadline time.Duration

	// peers is the coordinator's resilient fabric (nil on plain daemons
	// and workers); held for statusz visibility into retries and hedges.
	peers *client.Peers

	grp    *pool.Group
	gctx   context.Context
	cancel context.CancelFunc
	sem    chan struct{}

	closeOnce sync.Once
	closed    chan struct{}

	maxHistory int

	mu        sync.Mutex
	jobs      map[string]*job
	completed []string // completed job IDs, oldest first (history bound)
	byKey     map[pubtac.Fingerprint]*job
	nextID    int
	computed  uint64 // analyses actually run
	deduped   uint64 // submissions that joined an in-flight identical job
	shards    uint64 // campaign shards served via POST /v1/shards
	sheds     uint64 // shard requests shed with 429 at full capacity
}

// job is one in-flight or completed analysis.
type job struct {
	id  string
	key pubtac.Fingerprint

	mu     sync.Mutex
	events []pubtac.ProgressEvent
	logged map[progressSeries]int // last percentage logged per series
	notify chan struct{}          // closed and replaced on every append/finish
	done   bool
	body   []byte
	errMsg string
}

// ServerStats is the /v1/statusz document.
type ServerStats struct {
	ConfigFingerprint string     `json:"config_fingerprint"`
	SchemaVersion     int        `json:"schema_version"`
	Computed          uint64     `json:"computed"`
	Deduped           uint64     `json:"deduped"`
	Shards            uint64     `json:"shards"`
	Sheds             uint64     `json:"sheds"`
	Jobs              int        `json:"jobs"`
	Store             StoreStats `json:"store"`
	// Fabric reports the coordinator's peer fabric — retries, hedges,
	// hedge wins, breaker states — and is absent on non-coordinators.
	Fabric *client.FabricStats `json:"fabric,omitempty"`
}

// New builds a Server. The session options are resolved once to derive the
// daemon's config fingerprint; every job session is built from the same
// options plus its progress sink, so all jobs share that fingerprint. New
// also builds the registry table, fingerprinting every registry input once
// (about 10 ms).
func New(opts Options) (*Server, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("serve: Options.Store is required")
	}
	maxJobs := opts.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 2
	}
	probe := pubtac.NewSession(opts.SessionOptions...)
	cfg := probe.Config()
	table, err := newRegistry(cfg.SeedSalt)
	if err != nil {
		return nil, fmt.Errorf("serve: building the registry table: %w", err)
	}
	peers, _ := cfg.Sharder.(*client.Peers)
	ctx, cancel := context.WithCancel(context.Background())
	grp, gctx := pool.WithContext(ctx)
	s := &Server{
		mux:           http.NewServeMux(),
		store:         opts.Store,
		baseOpts:      slices.Clone(opts.SessionOptions),
		cfg:           cfg,
		cfgFP:         probe.ConfigFingerprint(),
		table:         table,
		grp:           grp,
		gctx:          gctx,
		cancel:        cancel,
		sem:           make(chan struct{}, maxJobs),
		shardSem:      make(chan struct{}, maxJobs),
		shardDeadline: opts.ShardDeadline,
		peers:         peers,
		closed:        make(chan struct{}),
		jobs:          make(map[string]*job),
		byKey:         make(map[pubtac.Fingerprint]*job),
	}
	s.maxHistory = opts.MaxJobHistory
	if s.maxHistory <= 0 {
		s.maxHistory = 1024
	}
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/shards", s.handleShard)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/statusz", s.handleStats)
	return s, nil
}

// ConfigFingerprint returns the fingerprint of the daemon's resolved session
// configuration (half of every cache key).
func (s *Server) ConfigFingerprint() pubtac.Fingerprint { return s.cfgFP }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Stats returns a snapshot of the server and store counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	st := ServerStats{
		ConfigFingerprint: s.cfgFP.String(),
		SchemaVersion:     pubtac.ResultSchemaVersion,
		Computed:          s.computed,
		Deduped:           s.deduped,
		Shards:            s.shards,
		Sheds:             s.sheds,
		Jobs:              len(s.jobs),
	}
	s.mu.Unlock()
	st.Store = s.store.Stats()
	if s.peers != nil {
		fs := s.peers.Stats()
		st.Fabric = &fs
	}
	return st
}

// Close stops the server: running jobs are cancelled, SSE streams and
// waiting submissions are released, and Close blocks until every job
// goroutine has drained. The store is left as-is (it belongs to the caller
// and survives restarts by design).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.cancel()
	})
	return s.grp.Wait()
}

// keyOf derives the content address of resolved jobs under this server's
// configuration: the derivation a client performs with Job.Key and
// pubtac.AnalysisKey, over the table's stored fingerprints.
func (s *Server) keyOf(jobs []tableJob) pubtac.Fingerprint {
	keys := make([]pubtac.Fingerprint, len(jobs))
	var fps []pubtac.Fingerprint
	for i, j := range jobs {
		fps = fps[:0]
		for _, e := range j.inputs {
			fps = append(fps, e.fp)
		}
		keys[i] = pubtac.JobKey(fps...)
	}
	return pubtac.AnalysisKey(s.cfgFP, keys...)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req client.AnalyzeRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	jobs, err := s.table.resolve(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := s.keyOf(jobs)

	if body, tier, ok := s.store.Get(key); ok {
		if req.Wait {
			writeResult(w, key, body, "hit", tier)
			return
		}
		writeJSON(w, client.SubmitResponse{
			Key: key.String(), Cached: true, SchemaVersion: pubtac.ResultSchemaVersion,
		})
		return
	}

	j, joined := s.startOrJoin(key, jobs)
	if !req.Wait {
		writeJSON(w, client.SubmitResponse{
			JobID: j.id, Key: key.String(), Deduped: joined,
			SchemaVersion: pubtac.ResultSchemaVersion,
		})
		return
	}
	body2, errMsg, err := j.wait(r.Context(), s.closed)
	switch {
	case err != nil:
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errMsg != "":
		httpError(w, http.StatusInternalServerError, "analysis failed: %s", errMsg)
	default:
		writeResult(w, key, body2, "miss", "")
	}
}

// startOrJoin returns the in-flight job for key, creating and launching one
// when none exists. joined reports that an identical submission was already
// running — the singleflight path: concurrent identical submissions compute
// once and all observe the same job.
func (s *Server) startOrJoin(key pubtac.Fingerprint, jobs []tableJob) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.byKey[key]; ok {
		s.deduped++
		return j, true
	}
	s.nextID++
	j := &job{
		id:     fmt.Sprintf("j%06d", s.nextID),
		key:    key,
		notify: make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.byKey[key] = j
	s.computed++
	s.grp.Go(func() error {
		s.run(j, jobs)
		return nil // job errors live on the job; they must not cancel the group
	})
	return j, false
}

// run executes one analysis job end to end: a fresh session wired to the
// job's event log, the batch on the table's programs over the server's pool
// context, persistence, and completion. Panics are contained to the job (a
// panicking task would otherwise cancel the group and with it every other
// running job).
func (s *Server) run(j *job, jobs []tableJob) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	defer func() {
		if r := recover(); r != nil {
			s.finish(j, nil, fmt.Errorf("panic: %v", r))
		}
	}()
	if err := s.gctx.Err(); err != nil {
		s.finish(j, nil, err)
		return
	}
	opts := append(append([]pubtac.Option(nil), s.baseOpts...), pubtac.WithProgress(j.emit))
	session := pubtac.NewSession(opts...)
	batch, err := session.AnalyzeBatch(s.gctx, pipelineJobs(jobs))
	if err != nil {
		s.finish(j, nil, err)
		return
	}
	body, err := batch.JSON()
	if err != nil {
		s.finish(j, nil, err)
		return
	}
	// A failed persist is not a failed analysis: the result is still
	// correct and served; only its survival across restart is lost.
	_ = s.store.Put(j.key, body)
	s.finish(j, body, nil)
}

// finish completes the job and retires it from the singleflight table; its
// result stays addressable through the store. Completed-job history is
// bounded: the oldest finished jobs are dropped from /v1/jobs.
func (s *Server) finish(j *job, body []byte, err error) {
	j.mu.Lock()
	j.done = true
	j.body = body
	if err != nil {
		j.errMsg = err.Error()
	}
	close(j.notify)
	j.mu.Unlock()

	s.mu.Lock()
	delete(s.byKey, j.key)
	s.completed = append(s.completed, j.id)
	for len(s.completed) > s.maxHistory {
		delete(s.jobs, s.completed[0])
		s.completed = s.completed[1:]
	}
	s.mu.Unlock()
}

// progressSeries is one series of a job's progress log: one path's
// campaign toward one target.
type progressSeries struct {
	program, input string
	target         int
}

// emit logs a progress event and wakes every watcher. The log is bounded,
// because core reports one event per 64-run block and finished jobs keep
// their logs: a converge event is logged only when it opens its
// series, reaches the target, or raises the series' percentage
// ⌊100·Done/Target⌋ above the last one logged, so a series logs at most 101
// events. Warnings and done events are always logged. The session
// serializes calls, so only watchers race with it — hence the lock.
func (j *job) emit(ev pubtac.ProgressEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ev.Phase == "converge" {
		series := progressSeries{ev.Program, ev.Input, ev.Target}
		pct := 100
		if ev.Target > 0 {
			pct = 100 * ev.Done / ev.Target
		}
		last, seen := j.logged[series]
		if seen && ev.Done < ev.Target && pct <= last {
			return
		}
		if j.logged == nil {
			j.logged = make(map[progressSeries]int)
		}
		j.logged[series] = pct
	}
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
}

// wait blocks until the job completes, the request context is cancelled, or
// the server closes.
func (j *job) wait(ctx context.Context, closed <-chan struct{}) (body []byte, errMsg string, err error) {
	for {
		j.mu.Lock()
		if j.done {
			body, errMsg = j.body, j.errMsg
			j.mu.Unlock()
			return body, errMsg, nil
		}
		notify := j.notify
		j.mu.Unlock()
		select {
		case <-notify:
		case <-ctx.Done():
			return nil, "", ctx.Err()
		case <-closed:
			return nil, "", fmt.Errorf("server shutting down")
		}
	}
}

func (s *Server) lookupJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	st := client.JobStatus{ID: j.id, Key: j.key.String(), State: "running", Events: len(j.events)}
	if j.done {
		st.State = "done"
		if j.errMsg != "" {
			st.State = "error"
			st.Error = j.errMsg
		}
	}
	j.mu.Unlock()
	writeJSON(w, st)
}

// handleEvents streams the job's progress as Server-Sent Events: every event
// emitted so far is replayed, then new ones stream as they arrive, and a
// terminal "done" or "error" frame closes the stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	sent := 0
	for {
		j.mu.Lock()
		pending := j.events[sent:]
		done, errMsg := j.done, j.errMsg
		notify := j.notify
		j.mu.Unlock()

		for _, ev := range pending {
			writeSSE(w, "progress", ev)
		}
		sent += len(pending)
		if done {
			if errMsg != "" {
				writeSSE(w, "error", map[string]string{"error": errMsg, "key": j.key.String()})
			} else {
				writeSSE(w, "done", map[string]string{"key": j.key.String()})
			}
			fl.Flush()
			return
		}
		fl.Flush()
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.closed:
			return
		}
	}
}

// maxShardRuns bounds one shard's run range: a coordinator never needs more
// (campaign caps are far smaller), so anything larger is a malformed or
// hostile spec, refused before it can pin a worker for hours.
const maxShardRuns = 1 << 22

// handleShard is the worker half of distributed campaign sharding: it
// recomputes the spec's run range — run i depends only on (root, i), so the
// bytes are exactly what the coordinator would have computed locally — and
// replies with them in a runs frame (stats.EncodeRuns, 28 + 8·n bytes for n
// runs), building no summary. Specs are verified against this daemon's own
// configuration (fingerprint and CampaignRoot) before a campaign is built:
// a worker must refuse work it would compute differently, because the
// coordinator trusts accepted shards bit for bit.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	var spec pubtac.ShardSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		httpError(w, http.StatusBadRequest, "decoding shard spec: %v", err)
		return
	}
	if spec.Config != s.cfgFP.String() {
		httpError(w, http.StatusConflict,
			"shard config fingerprint %s does not match this daemon's %s", spec.Config, s.cfgFP)
		return
	}
	if spec.Lo < 0 || spec.Hi < spec.Lo || spec.Runs() > maxShardRuns {
		httpError(w, http.StatusBadRequest, "invalid run range [%d, %d)", spec.Lo, spec.Hi)
		return
	}
	if want := s.cfg.CampaignRoot(spec.Program, spec.Input); spec.Root != want {
		httpError(w, http.StatusConflict,
			"shard root %d is not this daemon's root for %s(%s)", spec.Root, spec.Program, spec.Input)
		return
	}
	camp, err := s.campaignFor(spec)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}

	// Load shedding: a saturated worker answers immediately with 429 +
	// Retry-After instead of queuing requests it cannot serve soon. The
	// coordinator's fabric backs off and retries (elsewhere, if it can);
	// anything never served falls back to local recomputation — so a shed
	// degrades latency, never results.
	select {
	case s.shardSem <- struct{}{}:
		defer func() { <-s.shardSem }()
	case <-s.closed:
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	default:
		s.mu.Lock()
		s.sheds++
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "shard capacity saturated, retry later")
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	if s.shardDeadline > 0 {
		// Per-shard deadline: a shard that cannot finish in time fails
		// with 503 below, freeing the slot; the coordinator recomputes
		// the range bit-identically.
		ctx, cancel = context.WithTimeout(r.Context(), s.shardDeadline)
	}
	defer cancel()
	stop := context.AfterFunc(s.gctx, cancel)
	defer stop()

	// Raw-run transport: the coordinator copies the runs into place by
	// index, so its campaign is bit-identical in every estimation mode,
	// streaming included.
	runs, err := camp.CollectRangeCtx(ctx, spec.Lo, spec.Hi, s.cfg.MBPTA.Workers, nil)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "collecting shard: %v", err)
		return
	}
	enc := stats.EncodeRuns(runs)
	s.mu.Lock()
	s.shards++
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(enc)
}

// campaignFor returns the compiled campaign a shard spec names, from the
// registry table: repeated shard rounds of one campaign — every convergence
// round produces a fresh round of specs — pay PUB and trace compilation
// once.
func (s *Server) campaignFor(spec pubtac.ShardSpec) (*mbpta.Campaign, error) {
	be, err := s.table.lookup(spec.Program)
	if err != nil {
		return nil, err
	}
	e, err := be.input(spec.Input)
	if err != nil {
		return nil, err
	}
	return e.campaign(be.bench, spec.Original, s.cfg)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key, err := pubtac.ParseFingerprint(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The key IS the content hash, so it doubles as a strong ETag: a client
	// (or federating peer) holding any body for it holds the current one.
	if etagMatch(r.Header.Get("If-None-Match"), etagFor(key)) {
		h := w.Header()
		h.Set("ETag", etagFor(key))
		h.Set(client.HeaderKey, key.String())
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body, tier, ok := s.store.Get(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no result for key %s", key)
		return
	}
	writeResult(w, key, body, "hit", tier)
}

// etagFor returns the strong ETag of a stored result: the quoted content
// key. Content addressing makes revalidation trivial — bodies for one key
// never change (schema rotations rotate the key itself).
func etagFor(key pubtac.Fingerprint) string { return `"` + key.String() + `"` }

// etagMatch reports whether an If-None-Match header matches the ETag:
// either the wildcard or any listed entity tag, weak validators included
// (content addressing makes weak and strong comparison coincide).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// writeResult serves a stored or fresh result body with the cache headers
// the smoke tests and clients key on.
func writeResult(w http.ResponseWriter, key pubtac.Fingerprint, body []byte, cache, tier string) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("ETag", etagFor(key))
	h.Set(client.HeaderCache, cache)
	h.Set(client.HeaderKey, key.String())
	if tier != "" {
		h.Set(client.HeaderTier, tier)
	}
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	buf, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Write(buf)
}

func writeSSE(w io.Writer, event string, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, buf)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}
