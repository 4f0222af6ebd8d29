package predictor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/faults"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/metrics"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/probes"
	"hpcmetrics/internal/simexec"
	"hpcmetrics/internal/trace"
)

// herdRequest is the cell every heavy test in this file predicts: the
// study's cheapest cell, so the suite pays for one base run + trace.
var herdRequest = Request{App: "rfcth", Case: "standard", Procs: 16, Machine: machine.ARLOpteron, MetricID: 9}

// TestPredictCoalescesColdHerd is the PR's acceptance test: N identical
// concurrent requests against cold caches must run every underlying
// computation exactly once — one base execution, one trace, one metric
// convolution, one probe suite per machine — counter-asserted through
// the obs registry the Predictor's layers report into.
func TestPredictCoalescesColdHerd(t *testing.T) {
	if testing.Short() {
		t.Skip("probes two machines and runs a base execution + trace")
	}
	const herd = 8
	o := obs.New()
	ctx := o.Inject(context.Background())
	p := New(Config{})

	results := make([]*Result, herd)
	errs := make([]error, herd)
	var wg sync.WaitGroup
	var gun sync.WaitGroup
	gun.Add(1)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gun.Wait()
			results[i], errs[i] = p.Predict(ctx, herdRequest)
		}(i)
	}
	gun.Done()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	want := math.Float64bits(results[0].PredictedSeconds)
	colds := 0
	for i, res := range results {
		if math.Float64bits(res.PredictedSeconds) != want {
			t.Errorf("request %d predicted %v, request 0 predicted %v: cache hits are not exact",
				i, res.PredictedSeconds, results[0].PredictedSeconds)
		}
		switch res.Outcome {
		case "cold":
			colds++
			if res.Cached {
				t.Errorf("request %d: cold outcome but Cached=true", i)
			}
		case "coalesced", "cached":
			if !res.Cached {
				t.Errorf("request %d: %s outcome but Cached=false", i, res.Outcome)
			}
		default:
			t.Errorf("request %d: outcome %q, want cold/coalesced/cached", i, res.Outcome)
		}
	}
	if colds == 0 {
		t.Error("no herd member reported a cold outcome; someone must have led")
	}

	meter := o.Metrics
	for name, want := range map[string]int64{
		"predictor_probe_runs_total":           2, // base + target, once each
		"predictor_exec_runs_total":            1, // the base run; no ground truth requested
		"predictor_trace_runs_total":           1,
		"predictor_metric_runs_total":          1, // the convolution the herd coalesced onto
		"predictor_predict_cache_misses_total": 1,
	} {
		if got := meter.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	followers := meter.Counter("predictor_predict_cache_hits_total").Value() +
		meter.Counter("predictor_predict_cache_coalesced_total").Value()
	if followers != herd-1 {
		t.Errorf("prediction hits+coalesced = %d, want %d (every non-leader)", followers, herd-1)
	}

	// A later identical request is an exact cache hit, flagged as such,
	// and moves no run counter.
	res, err := p.Predict(ctx, herdRequest)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("repeat request not reported as cached")
	}
	if res.Outcome != "cached" {
		t.Errorf("repeat request outcome %q, want cached (every layer settled)", res.Outcome)
	}
	stats := p.CacheStats()
	for _, layer := range []string{"probes", "cells", "predictions", "observations"} {
		if _, ok := stats[layer]; !ok {
			t.Errorf("CacheStats missing layer %q: %v", layer, stats)
		}
	}
	if st := stats["predictions"]; st.Keys != 1 || st.Misses != 1 {
		t.Errorf("predictions layer stat = %+v, want 1 key, 1 miss", st)
	}
	if st := stats["cells"]; st.Keys != 1 || st.Misses != 1 {
		t.Errorf("cells layer stat = %+v, want 1 key, 1 miss", st)
	}
	if st := stats["probes"]; st.Keys != 2 || st.Misses != 2 {
		t.Errorf("probes layer stat = %+v, want 2 keys, 2 misses", st)
	}
	if st := stats["observations"]; st.Keys != 0 {
		t.Errorf("observations layer stat = %+v, want untouched", st)
	}
	if math.Float64bits(res.PredictedSeconds) != want {
		t.Errorf("cached prediction %v differs from cold %v", res.PredictedSeconds, results[0].PredictedSeconds)
	}
	if got := meter.Counter("predictor_metric_runs_total").Value(); got != 1 {
		t.Errorf("repeat request ran the metric again: predictor_metric_runs_total = %d", got)
	}

	// Parity with the packages: probing, executing, tracing and
	// predicting by direct calls, with no caches, must give the facade's
	// cached answer bit for bit.
	base := machine.Base()
	target, err := machine.Preset(herdRequest.Machine)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := apps.Lookup(herdRequest.App, herdRequest.Case)
	if err != nil {
		t.Fatal(err)
	}
	app, err := tc.Instance(herdRequest.Procs)
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
	m, err := metrics.ByID(herdRequest.MetricID)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := m.PredictContext(ctx, metrics.Context{
		Trace: tr, Base: basePr, Target: targetPr, BaseSeconds: baseRun.Seconds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(direct) != want {
		t.Errorf("direct computation %v differs from facade's cached %v", direct, res.PredictedSeconds)
	}
}

// TestPredictTooLargeTargetHasNoObservation: a job larger than the
// target is a missing observation, not an error — the prediction is
// still answered, like the paper's blank appendix cells.
func TestPredictTooLargeTargetHasNoObservation(t *testing.T) {
	if testing.Short() {
		t.Skip("probes two machines and runs a base execution + trace")
	}
	res, err := New(Config{}).Predict(context.Background(), Request{
		App: "rfcth", Procs: 129, Machine: machine.ARL690, MetricID: 9, Observed: true,
	})
	if err != nil {
		t.Fatalf("too-large target reported as error: %v", err)
	}
	if res.Fits || res.HasObserved || res.ObservedSeconds != 0 {
		t.Errorf("too-large target observed: %+v", res)
	}
	if res.PredictedSeconds <= 0 {
		t.Errorf("too-large target got no prediction: %+v", res)
	}
}

// TestPredictObservationErrorSurfaces: a ground-truth run that fails
// for any reason but size must fail the request, not silently leave the
// observation empty.
func TestPredictObservationErrorSurfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("probes two machines and runs a base execution + trace")
	}
	in := faults.New(1, faults.Rule{Point: faults.PointExecBlock, Kind: faults.Permanent, Rate: 1, Match: herdRequest.Machine})
	req := herdRequest
	req.Observed = true
	res, err := New(Config{}).Predict(in.Inject(context.Background()), req)
	if !errors.Is(err, faults.ErrPermanent) {
		t.Fatalf("Predict = %+v, %v; want an error wrapping faults.ErrPermanent", res, err)
	}
}

// TestRankOrdersFastestFirst ranks the cell across three systems and
// checks ordering plus the shared-cache effect: the cell's base run and
// trace are computed once, not once per machine.
func TestRankOrdersFastestFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("probes four machines and runs a base execution + trace")
	}
	o := obs.New()
	ctx := o.Inject(context.Background())
	p := New(Config{Workers: 3})
	machines := []string{machine.ARLOpteron, machine.MHPCCPower3, machine.ASCSC45}
	ranking, err := p.Rank(ctx, RankRequest{
		App: "rfcth", Case: "standard", Procs: 16, MetricID: 1, Machines: machines,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranking.Entries) != len(machines) {
		t.Fatalf("ranking has %d entries, want %d", len(ranking.Entries), len(machines))
	}
	for i := 1; i < len(ranking.Entries); i++ {
		if ranking.Entries[i-1].PredictedSeconds > ranking.Entries[i].PredictedSeconds {
			t.Errorf("ranking not sorted: entry %d (%s, %.0fs) slower than entry %d (%s, %.0fs)",
				i-1, ranking.Entries[i-1].Machine, ranking.Entries[i-1].PredictedSeconds,
				i, ranking.Entries[i].Machine, ranking.Entries[i].PredictedSeconds)
		}
	}
	if got := o.Metrics.Counter("predictor_trace_runs_total").Value(); got != 1 {
		t.Errorf("rank traced the cell %d times, want 1 (shared across machines)", got)
	}
	if got := o.Metrics.Counter("predictor_metric_runs_total").Value(); got != int64(len(machines)) {
		t.Errorf("rank ran %d metric predictions, want %d (one per machine)", got, len(machines))
	}
	if ranking.Outcome != "cold" {
		t.Errorf("first ranking outcome %q, want cold", ranking.Outcome)
	}
	again, err := p.Rank(ctx, RankRequest{
		App: "rfcth", Case: "standard", Procs: 16, MetricID: 1, Machines: machines,
	})
	if err != nil {
		t.Fatal(err)
	}
	if again.Outcome != "cached" {
		t.Errorf("repeat ranking outcome %q, want cached (every entry settled)", again.Outcome)
	}
}

// TestResolveRejectsBadRequests: every invalid field maps to
// ErrBadRequest so the server can blame the client, not itself.
func TestResolveRejectsBadRequests(t *testing.T) {
	p := New(Config{})
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown app", Request{App: "nonesuch", Machine: machine.ARLOpteron, MetricID: 9}},
		{"unknown case", Request{App: "avus", Case: "huge", Machine: machine.ARLOpteron, MetricID: 9}},
		{"unknown machine", Request{App: "avus", Machine: "CRAY_XMP", MetricID: 9}},
		{"unknown metric", Request{App: "avus", Machine: machine.ARLOpteron, MetricID: 10}},
		{"negative procs", Request{App: "avus", Procs: -4, Machine: machine.ARLOpteron, MetricID: 9}},
		{"procs beyond the base system", Request{App: "rfcth", Procs: 1409, Machine: machine.ARLOpteron, MetricID: 9}},
	}
	for _, c := range cases {
		if _, err := p.Predict(context.Background(), c.req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", c.name, err)
		}
	}
	if _, err := p.Rank(context.Background(), RankRequest{
		App: "avus", MetricID: 9, Machines: []string{machine.ARLOpteron, "CRAY_XMP"},
	}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("rank with one bad machine: err = %v, want ErrBadRequest", err)
	}
}

// --- cache mechanics (no simulation, all synthetic computes) ---

// TestCacheDoesNotCacheErrors: a failed computation leaves no residue;
// the next request recomputes and can succeed.
func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := newCache("t", "t")
	ctx := context.Background()
	calls := 0
	boom := errors.New("boom")
	if _, _, err := c.get(ctx, "k", func(context.Context) (any, error) {
		calls++
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, kind, err := c.get(ctx, "k", func(context.Context) (any, error) {
		calls++
		return 42, nil
	})
	if err != nil || v.(int) != 42 || kind.cached() {
		t.Fatalf("second get = (%v, kind=%v, %v), want fresh 42", v, kind, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (error not cached)", calls)
	}
	if c.size() != 1 {
		t.Fatalf("cache holds %d keys, want 1", c.size())
	}
}

// TestCacheFollowerSurvivesLeaderCancellation: the leader's own deadline
// dying must not fail the followers coalesced behind it — they elect a
// new leader and still get an answer.
func TestCacheFollowerSurvivesLeaderCancellation(t *testing.T) {
	c := newCache("t", "t")
	lctx, lcancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.get(lctx, "k", func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		leaderDone <- err
	}()
	<-started

	followerDone := make(chan struct{})
	var fv any
	var ferr error
	go func() {
		defer close(followerDone)
		fv, _, ferr = c.get(context.Background(), "k", func(context.Context) (any, error) {
			return "recovered", nil
		})
	}()
	// Let the follower reach its wait before the leader dies; the exact
	// interleaving does not matter for correctness, only for making the
	// coalesced path likely.
	time.Sleep(10 * time.Millisecond)
	lcancel()

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follower hung after leader cancellation")
	}
	if ferr != nil || fv.(string) != "recovered" {
		t.Fatalf("follower = (%v, %v), want recovered", fv, ferr)
	}
}

// TestCacheEmitsOutcomeSpans: under a traced request context, a cold
// get runs its computation inside a "<layer>.compute" span (outcome
// cold) and a coalesced follower's wait is a "<layer>.wait" span
// annotated with the leader's trace ID — the attributes tracecheck
// -serve joins on.
func TestCacheEmitsOutcomeSpans(t *testing.T) {
	c := newCache("t_cache", "layer")
	o := obs.New()

	leaderCtx, leaderRoot := obs.StartRequestSpan(o.Inject(context.Background()), "predict", "")
	followerCtx, followerRoot := obs.StartRequestSpan(o.Inject(context.Background()), "predict", "")

	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if _, kind, err := c.get(leaderCtx, "k", func(context.Context) (any, error) {
			close(started)
			<-release
			return "v", nil
		}); err != nil || kind != hitMiss {
			t.Errorf("leader get = (kind=%v, %v), want led miss", kind, err)
		}
	}()
	<-started
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		if _, kind, err := c.get(followerCtx, "k", func(context.Context) (any, error) {
			return nil, fmt.Errorf("follower must not lead")
		}); err != nil || kind != hitCoalesced {
			t.Errorf("follower get = (kind=%v, %v), want coalesced", kind, err)
		}
	}()
	// Let the follower reach its wait before releasing the leader, so
	// the coalesced path is taken (same idea as the tests above).
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-leaderDone
	<-followerDone
	leaderRoot.End()
	followerRoot.End()

	var compute, wait *obs.SpanRecord
	for _, rec := range o.Tracer.Records() {
		rec := rec
		switch rec.Name {
		case "layer.compute":
			compute = &rec
		case "layer.wait":
			wait = &rec
		}
	}
	if compute == nil || wait == nil {
		t.Fatalf("span log missing compute/wait spans: %+v", o.Tracer.Records())
	}
	if compute.Attrs[obs.AttrOutcome] != "cold" || compute.Trace != leaderRoot.TraceID() {
		t.Errorf("compute span = %+v, want outcome cold under leader trace %s", compute, leaderRoot.TraceID())
	}
	if wait.Attrs[obs.AttrOutcome] != "coalesced" {
		t.Errorf("wait span outcome = %q, want coalesced", wait.Attrs[obs.AttrOutcome])
	}
	if wait.Attrs[obs.AttrLeaderTrace] != leaderRoot.TraceID() {
		t.Errorf("wait span leader_trace = %q, want the leader's trace %s",
			wait.Attrs[obs.AttrLeaderTrace], leaderRoot.TraceID())
	}
	if wait.Trace != followerRoot.TraceID() {
		t.Errorf("wait span trace = %q, want the follower's own trace %s", wait.Trace, followerRoot.TraceID())
	}

	st := c.stat()
	if st.Keys != 1 || st.Misses != 1 || st.Coalesced != 1 || st.Hits != 0 {
		t.Errorf("cache stat = %+v, want 1 key, 1 miss, 1 coalesced", st)
	}
}

// TestCacheWaiterHonorsOwnDeadline: a follower whose own context expires
// abandons the wait with its context's error, leaving the leader alone.
func TestCacheWaiterHonorsOwnDeadline(t *testing.T) {
	c := newCache("t", "t")
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, err := c.get(context.Background(), "k", func(context.Context) (any, error) {
			close(started)
			<-release
			return "slow", nil
		})
		if err != nil {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-started

	fctx, fcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer fcancel()
	_, _, err := c.get(fctx, "k", func(context.Context) (any, error) {
		return nil, fmt.Errorf("follower must not lead")
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want DeadlineExceeded", err)
	}
	close(release)
	<-leaderDone

	// The leader's value settled and is served as a hit.
	v, kind, err := c.get(context.Background(), "k", func(context.Context) (any, error) {
		return nil, fmt.Errorf("must hit")
	})
	if err != nil || kind != hitSettled || v.(string) != "slow" {
		t.Fatalf("post-settle get = (%v, kind=%v, %v), want settled slow", v, kind, err)
	}
}

func TestObservationNoiseProperties(t *testing.T) {
	cell := "a-b@8"
	n1 := observationNoise(cell, "m1")
	n2 := observationNoise(cell, "m1")
	if n1 != n2 {
		t.Fatal("noise not deterministic")
	}
	if n1 < 1-NoiseAmplitude || n1 > 1+NoiseAmplitude {
		t.Fatalf("noise %g outside band", n1)
	}
	if observationNoise(cell, "m2") == n1 {
		t.Fatal("noise identical across machines")
	}
}
