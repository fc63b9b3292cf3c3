package bench

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Tracer keeps the spans and counters of a traced pass in memory; they are
// written out only when the run ends. A nil *Tracer records nothing, so
// workload code calls it unconditionally and untraced passes pay a nil
// check per call.
type Tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []Span
	counts map[string]float64
}

// Span is one timed call into a layer, made by op Op.
type Span struct {
	Name       string
	Op         int
	Parent     int           // index of the enclosing span, or Root or Direct
	Start, End time.Duration // since the tracer started
}

// Parents of top-level spans.
const (
	// Root marks the span that is op Op itself: it covers exactly the time
	// the op's latency sample measures.
	Root = -1
	// Direct marks a layer call the benchmark makes itself after op Op, on
	// the op's inputs, to time a layer the op reaches only inside another
	// process's handler (key derivation, store reads and writes, shard
	// replay and wire encoding, a daemon's cold analysis). Direct spans lie
	// outside the op's time: they break a handler's self time down; they
	// do not add to the op.
	Direct = -2
)

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// Begin opens a span of op under parent and returns its id. The name is
// given to End, because some spans (an HTTP round trip, named after the
// request class it turned out to be) are only classified once they finish.
func (t *Tracer) Begin(op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Op: op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// End closes span id under name and returns its duration.
func (t *Tracer) End(id int, name string) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id]
	sp.Name, sp.End = name, now
	return now - sp.Start
}

// Add adds v to the named counter.
func (t *Tracer) Add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// Max raises the named counter to at least v.
func (t *Tracer) Max(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if v > t.counts[name] {
		t.counts[name] = v
	}
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children may overlap one another (concurrent shards), so
// the covered part is the union of their intervals.
func selfTimes(spans []Span) []time.Duration {
	kids := make(map[int][]Span)
	for _, sp := range spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, sp := range spans {
		self[i] = sp.End - sp.Start - covered(sp, kids[i])
	}
	return self
}

// covered returns how much of sp's interval the union of kids spans.
func covered(sp Span, kids []Span) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var total time.Duration
	lo, hi := sp.Start, sp.Start
	for _, k := range kids {
		s, e := max(k.Start, sp.Start), min(k.End, sp.End)
		if e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return total + hi - lo
}

// finish folds the spans into counters and returns them: every span's
// self time is added to "<name>_ms", and trace.op_ms and trace.covered_ms
// record how long the ops took and how much of that their child spans
// account for.
func (t *Tracer) finish() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, d := range selfTimes(t.spans) {
		sp := t.spans[i]
		t.counts[sp.Name+"_ms"] += ms(d)
		if sp.Parent == Root {
			t.counts["trace.op_ms"] += ms(sp.End - sp.Start)
			t.counts["trace.covered_ms"] += ms(sp.End - sp.Start - d)
		}
	}
	return t.counts
}

// WriteChrome writes the spans as Chrome trace-event JSON, one complete
// event per span: the ops' spans in process 1 and the direct calls in
// process 2, one thread row per op. meta goes under "otherData".
func (t *Tracer) WriteChrome(w io.Writer, meta any) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	top := make([]int, len(t.spans)) // each span's top-level ancestor's Parent
	events := make([]event, len(t.spans))
	for i, sp := range t.spans {
		args := map[string]string{"self_us": strconv.FormatFloat(us(self[i]), 'f', 3, 64)}
		if sp.Parent >= 0 {
			args["parent"] = t.spans[sp.Parent].Name
			top[i] = top[sp.Parent] // parents precede their children
		} else {
			top[i] = sp.Parent
		}
		pid := 1
		if top[i] == Direct {
			pid = 2
		}
		events[i] = event{Name: sp.Name, Ph: "X", Ts: us(sp.Start), Dur: us(sp.End - sp.Start),
			Pid: pid, Tid: sp.Op, Args: args}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
		OtherData   any     `json:"otherData"`
	}{events, meta})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// A span travels with a request's context, so that calls reached through
// interfaces and over HTTP record their spans as its children.
type spanKey struct{}

type spanRef struct{ op, id int }

// withSpan makes span id of op the parent of spans recorded under ctx.
func withSpan(ctx context.Context, tr *Tracer, op, id int) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{op, id})
}

// spanHeader carries a span from the benchmark's HTTP clients to its
// handler middleware as "op/id".
const spanHeader = "X-Pubtac-Bench-Span"

// spanTransport stamps every request made under a span with spanHeader.
type spanTransport struct{ next http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.Itoa(ref.op)+"/"+strconv.Itoa(ref.id))
	}
	return t.next.RoundTrip(r)
}

// newSpanTransport returns an HTTP transport that stamps spans, with room
// for the connections of every client goroutine.
func newSpanTransport() http.RoundTripper {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 16
	return spanTransport{base}
}

// handlerSpans wraps a server so that a request carrying spanHeader gets a
// span around its handler, named "serve.handler.<class>" after the class
// classify gives its response.
func handlerSpans(tr *Tracer, next http.Handler, classify func(status int, h http.Header) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, id, ok := strings.Cut(r.Header.Get(spanHeader), "/")
		o, err1 := strconv.Atoi(op)
		i, err2 := strconv.Atoi(id)
		if !ok || err1 != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		sp := tr.Begin(o, i)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		tr.End(sp, "serve.handler."+classify(rec.status, w.Header()))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}
