package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/predictor"
)

// serverConfig tunes the serving layer, separate from the predictor's
// own compute configuration.
type serverConfig struct {
	// workers bounds concurrently served requests (the gate's semaphore
	// width); 0 means GOMAXPROCS.
	workers int
	// queueLimit bounds how many requests may wait for a worker before
	// the server sheds load with 429; 0 sheds as soon as every worker is
	// busy.
	queueLimit int
	// requestTimeout is the per-request deadline, derived from the
	// client's own context so a disconnect cancels the work too; 0
	// leaves requests bounded only by the client.
	requestTimeout time.Duration
	// statusWindow is the rolling window /v1/status quantiles cover; 0
	// means 60s. Resolution is one-second shards.
	statusWindow time.Duration
	// pprof opts the /debug/pprof/* handlers in. Off by default: the
	// profiling surface stays absent unless explicitly requested.
	pprof bool
}

// gate is the server's admission control: a semaphore of worker slots
// plus a bounded wait queue. Acquire blocks under the caller's context
// until a slot frees, sheds immediately once the queue is full, and
// never detaches from the request deadline — a queued request whose
// deadline expires leaves the queue.
type gate struct {
	sem        chan struct{}
	queueLimit int64
	waiting    atomic.Int64
}

func newGate(workers, queueLimit int) *gate {
	if workers <= 0 {
		workers = 1
	}
	return &gate{sem: make(chan struct{}, workers), queueLimit: int64(queueLimit)}
}

// acquire claims a worker slot. On success it returns a release func and
// true. On failure it returns (nil, false): either the queue was full
// (load shed — ctx.Err() is nil) or the caller's context expired while
// queued (ctx.Err() is non-nil).
func (g *gate) acquire(ctx context.Context) (release func(), ok bool) {
	select {
	case g.sem <- struct{}{}:
		return func() { <-g.sem }, true
	default:
	}
	if g.waiting.Add(1) > g.queueLimit {
		g.waiting.Add(-1)
		return nil, false
	}
	defer g.waiting.Add(-1)
	select {
	case g.sem <- struct{}{}:
		return func() { <-g.sem }, true
	case <-ctx.Done():
		return nil, false
	}
}

// endpointNames lists every traced endpoint; each gets its own rolling
// latency window for /v1/status.
var endpointNames = []string{"predict", "rank", "apps", "machines", "cache", "status", "healthz"}

// server is the predictd HTTP layer over the shared Predictor.
type server struct {
	p       *predictor.Predictor
	o       *obs.Obs
	g       *gate
	cfg     serverConfig
	mux     *http.ServeMux
	access  *obs.JSONLFile          // may be nil: access logging disabled
	windows map[string]*obs.Rolling // per-endpoint latency windows, fixed at construction
	started time.Time
}

func newServer(p *predictor.Predictor, o *obs.Obs, access *obs.JSONLFile, cfg serverConfig) *server {
	window := cfg.statusWindow
	if window <= 0 {
		window = 60 * time.Second
	}
	shards := int(window / time.Second)
	if shards < 1 {
		shards = 1
	}
	s := &server{
		p: p, o: o, g: newGate(cfg.workers, cfg.queueLimit), cfg: cfg,
		mux: http.NewServeMux(), access: access,
		windows: make(map[string]*obs.Rolling, len(endpointNames)),
		started: time.Now(),
	}
	for _, name := range endpointNames {
		s.windows[name] = obs.NewRolling(time.Second, shards)
	}
	s.mux.Handle("/v1/predict", s.gated("predict", s.handlePredict))
	s.mux.Handle("/v1/rank", s.gated("rank", s.handleRank))
	s.mux.Handle("/v1/apps", s.traced("apps", s.handleApps))
	s.mux.Handle("/v1/machines", s.traced("machines", s.handleMachines))
	s.mux.Handle("/v1/cache", s.traced("cache", s.handleCache))
	s.mux.Handle("/healthz", s.traced("healthz", handleHealth))
	// Introspection stays outside the admission gate: a saturated or
	// drowning server must still answer "what is happening in there".
	s.mux.Handle("/v1/status", s.traced("status", s.handleStatus))
	s.mux.Handle("/metrics", o.Meter().PromHandler())
	if cfg.pprof {
		s.mux.HandleFunc("/debug/pprof/", httppprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	return s
}

func (s *server) Handler() http.Handler { return s.mux }

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The status line is already out; a broken client connection is
		// the only way here, and there is nothing left to send it.
		return
	}
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// countingWriter records the status and body size a handler sent, for
// the access log.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// reqState carries what a handler learns about its request back to the
// traced wrapper for the root span and the access record.
type reqState struct {
	span    *obs.Span
	outcome string // cache outcome: "cold", "cached", "coalesced", or ""
	shed    string // admission refusal reason, or ""
}

// setOutcome records the request's cache outcome on both the state and
// the root span.
func (st *reqState) setOutcome(outcome string) {
	st.outcome = outcome
	st.span.Annotate(obs.AttrOutcome, outcome)
}

// tracedHandler is the signature every endpoint handler implements under
// the traced wrapper.
type tracedHandler func(ctx context.Context, st *reqState, w http.ResponseWriter, r *http.Request)

// traced wraps a handler with the per-request observability shared by
// every endpoint: a root span joining (or starting) the caller's W3C
// trace, the traceparent response echo, request/latency accounting, the
// rolling latency window behind /v1/status, and one access-log record
// carrying the trace ID so the two logs join.
func (s *server) traced(name string, h tracedHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		meter := s.o.Meter()
		meter.Counter("predictd_" + name + "_requests_total").Inc()
		lat := meter.Histogram("predictd_" + name + "_seconds")
		t0 := lat.StartTimer()
		start := time.Now()

		ctx, root := obs.StartRequestSpan(s.o.Inject(r.Context()), name, r.Header.Get("traceparent"))
		root.Annotate(obs.AttrEndpoint, name)
		if tp := root.Traceparent(); tp != "" {
			w.Header().Set("Traceparent", tp)
		}

		cw := &countingWriter{ResponseWriter: w}
		st := &reqState{span: root}
		h(ctx, st, cw, r)
		if cw.status == 0 {
			// Handler wrote nothing; net/http would send an implicit 200.
			cw.status = http.StatusOK
		}

		root.Annotate(obs.AttrStatus, strconv.Itoa(cw.status))
		if st.shed != "" {
			root.Annotate(obs.AttrShed, st.shed)
		}
		root.End()
		lat.ObserveSince(t0)
		elapsed := time.Since(start)
		s.windows[name].Observe(elapsed)
		if err := s.access.WriteRecord(obs.AccessRecord{
			TimeNs:    time.Now().UnixNano(),
			Trace:     root.TraceID(),
			Endpoint:  name,
			Status:    cw.status,
			LatencyNs: elapsed.Nanoseconds(),
			Outcome:   st.outcome,
			Shed:      st.shed,
			Bytes:     cw.bytes,
		}); err != nil {
			meter.Counter("predictd_access_log_errors_total").Inc()
		}
	})
}

// gated layers admission control onto a traced endpoint: the per-request
// deadline, the worker gate (429 + Retry-After on a full queue, 503 on a
// deadline spent queueing), and a "queue" child span recording how
// admission went, so queue wait shows up as its own slice of a request's
// latency decomposition.
func (s *server) gated(name string, h tracedHandler) http.Handler {
	return s.traced(name, func(ctx context.Context, st *reqState, w http.ResponseWriter, r *http.Request) {
		meter := s.o.Meter()
		inflight := meter.Gauge("predictd_inflight")
		inflight.Add(1)
		defer inflight.Add(-1)

		if s.cfg.requestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.requestTimeout)
			defer cancel()
		}
		_, qspan := obs.StartSpan(ctx, "queue")
		release, ok := s.g.acquire(ctx)
		if !ok {
			if ctx.Err() != nil {
				qspan.Annotate("result", "expired")
				qspan.End()
				meter.Counter("predictd_queue_expired_total").Inc()
				st.shed = "queue_deadline"
				writeError(w, http.StatusServiceUnavailable, "request deadline expired while queued")
				return
			}
			qspan.Annotate("result", "shed")
			qspan.End()
			meter.Counter("predictd_shed_total").Inc()
			st.shed = "queue_full"
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server saturated: %d workers busy, %d queued; retry later",
				cap(s.g.sem), s.cfg.queueLimit)
			return
		}
		qspan.Annotate("result", "admitted")
		qspan.End()
		defer release()
		h(ctx, st, w, r)
	})
}

// writeComputeError maps predictor errors onto statuses: validation
// failures are the client's (400), expired deadlines are 504, anything
// else is a genuine server-side failure (500).
func (s *server) writeComputeError(w http.ResponseWriter, err error) {
	meter := s.o.Meter()
	switch {
	case errors.Is(err, predictor.ErrBadRequest):
		meter.Counter("predictd_bad_requests_total").Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		meter.Counter("predictd_deadline_total").Inc()
		writeError(w, http.StatusGatewayTimeout, "request deadline expired: %v", err)
	default:
		meter.Counter("predictd_errors_total").Inc()
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// writeJSONETag sends v as indented JSON with a strong ETag (the SHA-256
// of the exact body bytes — responses are deterministic functions of the
// request, so the hash is stable across processes). A request whose
// If-None-Match matches gets 304 with no body; the ETag header is set
// either way so a client can start revalidating from any response.
func (s *server) writeJSONETag(w http.ResponseWriter, r *http.Request, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	body = append(body, '\n')
	sum := sha256.Sum256(body)
	etag := `"` + hex.EncodeToString(sum[:]) + `"`
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		s.o.Meter().Counter("predictd_not_modified_total").Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		// Client went away mid-body; nothing left to tell it.
		return
	}
}

// etagMatches implements the If-None-Match comparison: a comma-separated
// list of entity tags, "*" matching anything, with weak tags (W/ prefix)
// compared by their opaque value — RFC 9110's weak comparison, which is
// what If-None-Match specifies.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		if candidate == "*" {
			return true
		}
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == etag {
			return true
		}
	}
	return false
}

// queryInt parses an optional integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return n, nil
}

// queryBool parses an optional boolean query parameter ("1"/"true").
func queryBool(r *http.Request, name string) bool {
	switch strings.ToLower(r.URL.Query().Get(name)) {
	case "1", "true", "yes":
		return true
	}
	return false
}

func (s *server) handlePredict(ctx context.Context, st *reqState, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	procs, err := queryInt(r, "procs", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m, err := queryInt(r, "metric", 9)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := s.p.Predict(ctx, predictor.Request{
		App:      q.Get("app"),
		Case:     q.Get("case"),
		Procs:    procs,
		Machine:  q.Get("target"),
		MetricID: m,
		Observed: queryBool(r, "observed"),
	})
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	st.setOutcome(res.Outcome)
	s.writeJSONETag(w, r, res)
}

func (s *server) handleRank(ctx context.Context, st *reqState, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	procs, err := queryInt(r, "procs", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m, err := queryInt(r, "metric", 9)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var machines []string
	if t := q.Get("targets"); t != "" {
		for _, name := range strings.Split(t, ",") {
			if name = strings.TrimSpace(name); name != "" {
				machines = append(machines, name)
			}
		}
	}
	res, err := s.p.Rank(ctx, predictor.RankRequest{
		App:      q.Get("app"),
		Case:     q.Get("case"),
		Procs:    procs,
		MetricID: m,
		Machines: machines,
		Observed: queryBool(r, "observed"),
	})
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	st.setOutcome(res.Outcome)
	s.writeJSONETag(w, r, res)
}

// appInfo is one /v1/apps entry.
type appInfo struct {
	App       string `json:"app"`
	Case      string `json:"case"`
	CPUCounts []int  `json:"cpu_counts"`
}

func (s *server) handleApps(ctx context.Context, _ *reqState, w http.ResponseWriter, r *http.Request) {
	if ctx.Err() != nil {
		return // client gone; nothing to answer
	}
	var out []appInfo
	for _, tc := range apps.Registry() {
		out = append(out, appInfo{App: tc.Name, Case: tc.Case, CPUCounts: tc.CPUCounts})
	}
	writeJSON(w, http.StatusOK, out)
}

// machineInfo is one /v1/machines entry.
type machineInfo struct {
	Name       string `json:"name"`
	TotalProcs int    `json:"total_procs"`
	Base       bool   `json:"base,omitempty"`
}

func (s *server) handleMachines(ctx context.Context, _ *reqState, w http.ResponseWriter, r *http.Request) {
	if ctx.Err() != nil {
		return // client gone; nothing to answer
	}
	base := machine.Base()
	var out []machineInfo
	for _, name := range machine.Names() {
		cfg, err := machine.Preset(name)
		if err != nil {
			s.writeComputeError(w, err)
			return
		}
		out = append(out, machineInfo{Name: cfg.Name, TotalProcs: cfg.TotalProcs, Base: cfg.Name == base.Name})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleCache(ctx context.Context, _ *reqState, w http.ResponseWriter, r *http.Request) {
	if ctx.Err() != nil {
		return // client gone; nothing to answer
	}
	writeJSON(w, http.StatusOK, s.p.CacheStats())
}

// statusResponse is the /v1/status body: the live view of the server —
// uptime, admission state, per-endpoint rolling latency quantiles,
// per-layer cache traffic, and the runtime gauges the sampler keeps
// fresh.
type statusResponse struct {
	UptimeSeconds  float64                        `json:"uptime_seconds"`
	Workers        int                            `json:"workers"`
	QueueLimit     int                            `json:"queue_limit"`
	Inflight       int64                          `json:"inflight"`
	Queued         int64                          `json:"queued"`
	SpanSinkErrors int64                          `json:"span_sink_errors"`
	Goroutines     int64                          `json:"goroutines"`
	HeapAllocBytes int64                          `json:"heap_alloc_bytes"`
	GCCycles       int64                          `json:"gc_cycles"`
	Endpoints      map[string]obs.RollingSnap     `json:"endpoints"`
	Caches         map[string]predictor.CacheStat `json:"caches"`
}

func (s *server) handleStatus(ctx context.Context, _ *reqState, w http.ResponseWriter, r *http.Request) {
	if ctx.Err() != nil {
		return // client gone; nothing to answer
	}
	meter := s.o.Meter()
	resp := statusResponse{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Workers:        cap(s.g.sem),
		QueueLimit:     s.cfg.queueLimit,
		Inflight:       meter.Gauge("predictd_inflight").Value(),
		Queued:         s.g.waiting.Load(),
		SpanSinkErrors: s.o.Tracer.SinkErrors(),
		Goroutines:     meter.Gauge("runtime_goroutines").Value(),
		HeapAllocBytes: meter.Gauge("runtime_heap_alloc_bytes").Value(),
		GCCycles:       meter.Gauge("runtime_gc_cycles").Value(),
		Endpoints:      make(map[string]obs.RollingSnap, len(s.windows)),
		Caches:         s.p.CacheStats(),
	}
	for name, win := range s.windows {
		resp.Endpoints[name] = win.Snapshot()
	}
	writeJSON(w, http.StatusOK, resp)
}

func handleHealth(ctx context.Context, _ *reqState, w http.ResponseWriter, r *http.Request) {
	if ctx.Err() != nil {
		return // client gone; nothing to answer
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
