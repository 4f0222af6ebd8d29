package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/metrics"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/predictor"
	"hpcmetrics/internal/probes"
	"hpcmetrics/internal/simexec"
	"hpcmetrics/internal/trace"
)

// newTestServer boots a predictd handler on an httptest server.
func newTestServer(t *testing.T, cfg serverConfig) (*obs.Obs, *server, *httptest.Server) {
	t.Helper()
	o := obs.New()
	p := predictor.New(predictor.Config{Workers: cfg.workers})
	s := newServer(p, o, nil, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return o, s, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestListingsAndHealth covers the cheap read-only endpoints.
func TestListingsAndHealth(t *testing.T) {
	_, _, ts := newTestServer(t, serverConfig{workers: 2, queueLimit: 4})

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d: %s", resp.StatusCode, body)
	}

	resp, body = get(t, ts.URL+"/v1/apps")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/apps = %d: %s", resp.StatusCode, body)
	}
	var appList []appInfo
	if err := json.Unmarshal(body, &appList); err != nil {
		t.Fatal(err)
	}
	if len(appList) != len(apps.Registry()) {
		t.Errorf("/v1/apps lists %d cases, registry has %d", len(appList), len(apps.Registry()))
	}

	resp, body = get(t, ts.URL+"/v1/machines")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/machines = %d: %s", resp.StatusCode, body)
	}
	var machineList []machineInfo
	if err := json.Unmarshal(body, &machineList); err != nil {
		t.Fatal(err)
	}
	if len(machineList) != len(machine.Names()) {
		t.Errorf("/v1/machines lists %d systems, presets have %d", len(machineList), len(machine.Names()))
	}
	baseSeen := false
	for _, m := range machineList {
		if m.Base {
			baseSeen = true
			if m.Name != machine.Base().Name {
				t.Errorf("base flag on %s, want %s", m.Name, machine.Base().Name)
			}
		}
	}
	if !baseSeen {
		t.Error("/v1/machines does not flag the base system")
	}

	resp, body = get(t, ts.URL+"/v1/cache")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cache = %d: %s", resp.StatusCode, body)
	}
	var stats map[string]predictor.CacheStat
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	for _, layer := range []string{"probes", "cells", "predictions", "observations"} {
		if _, ok := stats[layer]; !ok {
			t.Errorf("/v1/cache missing layer %q: %v", layer, stats)
		}
	}

	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain exposition", ct)
	}
	if !strings.Contains(string(body), "predictd_predict_requests_total") {
		// The counter exists because /v1/apps above did not touch it; force
		// one request so the exposition carries endpoint series.
		if _, errBody := get(t, ts.URL+"/v1/predict?app=nonesuch"); len(errBody) == 0 {
			t.Fatal("predict error response empty")
		}
		_, body = get(t, ts.URL+"/metrics")
		if !strings.Contains(string(body), "predictd_predict_requests_total") {
			t.Errorf("/metrics exposition missing predictd_predict_requests_total:\n%s", body)
		}
	}
}

// TestPredictEndpointRejectsBadRequests maps client mistakes to 400s.
func TestPredictEndpointRejectsBadRequests(t *testing.T) {
	o, _, ts := newTestServer(t, serverConfig{workers: 2, queueLimit: 4})
	cases := []struct {
		name  string
		query string
	}{
		{"unknown app", "app=nonesuch&target=ARL_Opteron"},
		{"unparsable procs", "app=avus&target=ARL_Opteron&procs=abc"},
		{"unknown metric", "app=avus&target=ARL_Opteron&metric=10"},
		{"unknown target", "app=avus&target=CRAY_XMP"},
		{"procs beyond the base system", "app=rfcth&target=ARL_Opteron&procs=1409"},
	}
	for _, c := range cases {
		resp, body := get(t, ts.URL+"/v1/predict?"+c.query)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400; body %s", c.name, resp.StatusCode, body)
			continue
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not JSON with an error field (%v)", c.name, body, err)
		}
	}
	// The unparsable-procs case fails at the HTTP layer before reaching
	// the predictor, so bad_requests counts only the four resolver
	// rejections, and none of them is a server error.
	if got := o.Metrics.Counter("predictd_bad_requests_total").Value(); got != 4 {
		t.Errorf("predictd_bad_requests_total = %d, want 4", got)
	}
	if got := o.Metrics.Counter("predictd_errors_total").Value(); got != 0 {
		t.Errorf("predictd_errors_total = %d, want 0", got)
	}
	resp, body := get(t, ts.URL+"/v1/rank?app=avus&targets=ARL_Opteron,CRAY_XMP")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("rank with bad target: status %d, want 400; body %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/v1/rank?app=avus&targets=NAVO_655,ARL_Opteron,NAVO_655")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("rank with a repeated target: status %d, want 400; body %s", resp.StatusCode, body)
	}
}

// TestGateAdmission exercises the admission gate directly: immediate
// grant, shed on a full queue, and re-admission after release.
func TestGateAdmission(t *testing.T) {
	g := newGate(1, 0)
	release, ok := g.acquire(context.Background())
	if !ok {
		t.Fatal("first acquire refused on an idle gate")
	}
	if _, ok := g.acquire(context.Background()); ok {
		t.Fatal("second acquire admitted past a full gate with queue 0")
	}
	release()
	release, ok = g.acquire(context.Background())
	if !ok {
		t.Fatal("acquire refused after release")
	}
	release()

	// With a queue slot, a waiter is admitted when the worker frees...
	g = newGate(1, 1)
	release, _ = g.acquire(context.Background())
	admitted := make(chan bool)
	go func() {
		r2, ok := g.acquire(context.Background())
		if ok {
			r2()
		}
		admitted <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	release()
	if !<-admitted {
		t.Fatal("queued acquire not admitted after release")
	}

	// ...but abandons the queue when its own context dies first.
	g = newGate(1, 1)
	release, _ = g.acquire(context.Background())
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, ok := g.acquire(ctx); ok {
		t.Fatal("expired waiter admitted")
	}
	if ctx.Err() == nil {
		t.Fatal("waiter returned before its deadline with no slot")
	}
}

// TestServerShedsWhenSaturated saturates the gate from inside the test
// (no timing games) and expects 429 + Retry-After, then recovery.
func TestServerShedsWhenSaturated(t *testing.T) {
	o, s, ts := newTestServer(t, serverConfig{workers: 1, queueLimit: 0})
	s.g.sem <- struct{}{} // occupy the only worker slot
	resp, body := get(t, ts.URL+"/v1/predict?app=avus&target=ARL_Opteron")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated predict = %d, want 429; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := o.Metrics.Counter("predictd_shed_total").Value(); got != 1 {
		t.Errorf("predictd_shed_total = %d, want 1", got)
	}
	<-s.g.sem // free the slot; the server admits again
	resp, _ = get(t, ts.URL+"/v1/predict?app=nonesuch&target=ARL_Opteron")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("post-recovery predict = %d, want 400 (admitted, then rejected by resolver)", resp.StatusCode)
	}
}

// TestServerQueueDeadline: a request whose deadline expires while queued
// gets 503, distinct from the 429 shed.
func TestServerQueueDeadline(t *testing.T) {
	o, s, ts := newTestServer(t, serverConfig{workers: 1, queueLimit: 4, requestTimeout: 30 * time.Millisecond})
	s.g.sem <- struct{}{}
	defer func() { <-s.g.sem }()
	resp, body := get(t, ts.URL+"/v1/predict?app=avus&target=ARL_Opteron")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-past-deadline predict = %d, want 503; body %s", resp.StatusCode, body)
	}
	if got := o.Metrics.Counter("predictd_queue_expired_total").Value(); got != 1 {
		t.Errorf("predictd_queue_expired_total = %d, want 1", got)
	}
}

// TestServePredictParity is the serving-trust test: the JSON answer from
// predictd — cold, then cached — must be bit-identical to the number the
// predict CLI's own call sequence computes.
func TestServePredictParity(t *testing.T) {
	if testing.Short() {
		t.Skip("probes two machines and runs a base execution + trace")
	}
	o, _, ts := newTestServer(t, serverConfig{workers: 4, queueLimit: 8, requestTimeout: time.Minute})
	url := ts.URL + "/v1/predict?app=rfcth&procs=16&target=ARL_Opteron&metric=9"

	decode := func(body []byte) predictor.Result {
		var res predictor.Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("bad predict body %s: %v", body, err)
		}
		return res
	}
	resp, body := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold predict = %d: %s", resp.StatusCode, body)
	}
	cold := decode(body)
	if cold.Cached {
		t.Error("cold prediction reported as cached")
	}
	resp, body = get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm predict = %d: %s", resp.StatusCode, body)
	}
	warm := decode(body)
	if !warm.Cached {
		t.Error("repeat prediction not reported as cached")
	}
	if math.Float64bits(cold.PredictedSeconds) != math.Float64bits(warm.PredictedSeconds) {
		t.Errorf("cached answer %v differs from cold %v", warm.PredictedSeconds, cold.PredictedSeconds)
	}

	// The response carries a deterministic strong ETag; revalidating with
	// If-None-Match gets 304 with no body, and the server counts it.
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("predict response missing ETag")
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	notMod, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	nmBody, err := io.ReadAll(notMod.Body)
	notMod.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if notMod.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match revalidation = %d, want 304; body %s", notMod.StatusCode, nmBody)
	}
	if len(nmBody) != 0 {
		t.Errorf("304 carried a body: %s", nmBody)
	}
	if got := notMod.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag %q, want %q", got, etag)
	}
	if got := o.Metrics.Counter("predictd_not_modified_total").Value(); got != 1 {
		t.Errorf("predictd_not_modified_total = %d, want 1", got)
	}

	// Recompute the same cell by direct package calls — no caches — and
	// require bitwise equality through the JSON round trip.
	ctx := o.Inject(context.Background())
	base := machine.Base()
	target, err := machine.Preset(machine.ARLOpteron)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := apps.Lookup("rfcth", "")
	if err != nil {
		t.Fatal(err)
	}
	app, err := tc.Instance(16)
	if err != nil {
		t.Fatal(err)
	}
	basePr, err := probes.MeasureContext(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	targetPr, err := probes.MeasureContext(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	baseRun, err := simexec.ExecuteContext(ctx, base, app)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.CollectContext(ctx, base, app)
	if err != nil {
		t.Fatal(err)
	}
	m, err := metrics.ByID(9)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := m.PredictContext(ctx, metrics.Context{
		Trace: tr, Base: basePr, Target: targetPr, BaseSeconds: baseRun.Seconds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(direct) != math.Float64bits(warm.PredictedSeconds) {
		t.Errorf("direct computation %v differs from served %v", direct, warm.PredictedSeconds)
	}
	if math.Float64bits(baseRun.Seconds) != math.Float64bits(warm.BaseSeconds) {
		t.Errorf("direct base %v differs from served %v", baseRun.Seconds, warm.BaseSeconds)
	}

	// The rank endpoint reuses the warmed caches: no new trace runs.
	traces := o.Metrics.Counter("predictor_trace_runs_total").Value()
	resp, body = get(t, ts.URL+"/v1/rank?app=rfcth&procs=16&metric=9&targets=ARL_Opteron,MHPCC_P3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank = %d: %s", resp.StatusCode, body)
	}
	var ranking predictor.Ranking
	if err := json.Unmarshal(body, &ranking); err != nil {
		t.Fatal(err)
	}
	if len(ranking.Entries) != 2 {
		t.Fatalf("rank returned %d entries, want 2", len(ranking.Entries))
	}
	if ranking.Entries[0].PredictedSeconds > ranking.Entries[1].PredictedSeconds {
		t.Error("ranking not fastest-first")
	}
	if got := o.Metrics.Counter("predictor_trace_runs_total").Value(); got != traces {
		t.Errorf("rank re-traced the cell: %d runs, want %d", got, traces)
	}
}

// TestTraceparentEcho: a valid incoming traceparent joins the caller's
// trace (same trace ID echoed back, new span ID); an invalid one starts
// a fresh trace instead of failing the request.
func TestTraceparentEcho(t *testing.T) {
	_, _, ts := newTestServer(t, serverConfig{workers: 1, queueLimit: 0})
	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const incoming = "00-" + callerTrace + "-00f067aa0ba902b7-01"

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", incoming)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	echo := resp.Header.Get("Traceparent")
	traceID, parentID, ok := obs.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echo)
	}
	if traceID != callerTrace {
		t.Errorf("echoed trace %s, want caller's %s", traceID, callerTrace)
	}
	if parentID == "00f067aa0ba902b7" {
		t.Error("echo reused the caller's span ID instead of the server root span's")
	}

	req.Header.Set("traceparent", "not-a-traceparent")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID, _, ok = obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("fresh-trace response traceparent %q does not parse", resp.Header.Get("Traceparent"))
	}
	if traceID == callerTrace {
		t.Error("invalid traceparent adopted the previous trace ID")
	}
}

// TestStatusEndpoint: /v1/status reports admission config, rolling
// per-endpoint windows, and cache layers — and stays reachable when the
// worker gate is saturated, because it is routed outside the gate.
func TestStatusEndpoint(t *testing.T) {
	_, s, ts := newTestServer(t, serverConfig{workers: 2, queueLimit: 4, statusWindow: 30 * time.Second})
	resp, _ := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}

	resp, body := get(t, ts.URL+"/v1/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/status = %d: %s", resp.StatusCode, body)
	}
	var st statusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || st.QueueLimit != 4 {
		t.Errorf("status reports workers %d queue %d, want 2/4", st.Workers, st.QueueLimit)
	}
	if st.UptimeSeconds < 0 {
		t.Errorf("negative uptime %v", st.UptimeSeconds)
	}
	if snap, ok := st.Endpoints["healthz"]; !ok || snap.Count < 1 {
		t.Errorf("status window for healthz = %+v, want >= 1 observation", st.Endpoints["healthz"])
	}
	for _, layer := range []string{"probes", "cells", "predictions", "observations"} {
		if _, ok := st.Caches[layer]; !ok {
			t.Errorf("status missing cache layer %q", layer)
		}
	}

	// Saturate both worker slots; status must still answer.
	s.g.sem <- struct{}{}
	s.g.sem <- struct{}{}
	defer func() { <-s.g.sem; <-s.g.sem }()
	resp, body = get(t, ts.URL+"/v1/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/status under saturation = %d: %s", resp.StatusCode, body)
	}
}

// TestPprofOptIn: the profiling surface exists only with the flag.
func TestPprofOptIn(t *testing.T) {
	_, _, off := newTestServer(t, serverConfig{workers: 1, queueLimit: 0})
	resp, _ := get(t, off.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -pprof = %d, want 404", resp.StatusCode)
	}
	_, _, on := newTestServer(t, serverConfig{workers: 1, queueLimit: 0, pprof: true})
	resp, _ = get(t, on.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -pprof = %d, want 200", resp.StatusCode)
	}
}

// TestEtagMatches pins the If-None-Match comparison.
func TestEtagMatches(t *testing.T) {
	const tag = `"abc123"`
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{tag, true},
		{`"other"`, false},
		{`"other", ` + tag, true},
		{"*", true},
		{"W/" + tag, true},
		{"abc123", false}, // unquoted is a different opaque value
	}
	for _, c := range cases {
		if got := etagMatches(c.header, tag); got != c.want {
			t.Errorf("etagMatches(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// TestEffectiveWorkers pins the 0-means-GOMAXPROCS default.
func TestEffectiveWorkers(t *testing.T) {
	if got := effectiveWorkers(3); got != 3 {
		t.Errorf("effectiveWorkers(3) = %d", got)
	}
	if got := effectiveWorkers(0); got < 1 {
		t.Errorf("effectiveWorkers(0) = %d, want >= 1", got)
	}
}
