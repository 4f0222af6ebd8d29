package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/predictor"
)

// TestServeDrainFlushesLogs runs a full server lifecycle with span and
// access logs enabled: traffic demonstrating all three cache outcomes
// (cold, cached, coalesced), a caller-supplied traceparent, then
// cancellation with a request still in flight. The drain must leave both
// logs complete — every line parses (no torn JSONL tail) and the pair
// cross-validates with obs.CheckServeLogs, the same gate tracecheck
// -serve applies in CI.
func TestServeDrainFlushesLogs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full server lifecycle with compute traffic")
	}
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "spans.jsonl")
	accessPath := filepath.Join(dir, "access.jsonl")
	ready := filepath.Join(dir, "ready")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- serve(ctx, serveOptions{
			addr:            "127.0.0.1:0",
			workers:         8,
			queue:           32,
			requestTimeout:  time.Minute,
			shutdownTimeout: 10 * time.Second,
			readyFile:       ready,
			spansPath:       spansPath,
			accessPath:      accessPath,
			logMaxBytes:     64 << 20,
			statusWindow:    30 * time.Second,
			runtimeSample:   50 * time.Millisecond,
		})
	}()

	var base string
	for i := 0; i < 500; i++ {
		if b, err := os.ReadFile(ready); err == nil {
			base = "http://" + strings.TrimSpace(string(b))
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if base == "" {
		t.Fatal("server never wrote its ready file")
	}

	getResult := func(url, traceparent string) (*http.Response, predictor.Result) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
		}
		var res predictor.Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("bad predict body %s: %v", body, err)
		}
		return resp, res
	}

	// Round 1: a cold request carrying a caller traceparent. The echo and
	// the access log must both carry the caller's trace ID.
	const callerTrace = "aaaabbbbccccddddeeeeffff00001111"
	coldURL := base + "/v1/predict?app=rfcth&procs=16&target=ARL_Opteron&metric=9"
	resp, res := getResult(coldURL, "00-"+callerTrace+"-00f067aa0ba902b7-01")
	if res.Outcome != "cold" {
		t.Errorf("first request outcome %q, want cold", res.Outcome)
	}
	if traceID, _, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent")); !ok || traceID != callerTrace {
		t.Errorf("echoed traceparent %q does not carry caller trace %s", resp.Header.Get("Traceparent"), callerTrace)
	}

	// Round 2: the identical request is a settled hit on every layer.
	if _, res = getResult(coldURL, ""); res.Outcome != "cached" {
		t.Errorf("repeat request outcome %q, want cached", res.Outcome)
	}

	// Round 3: a thundering herd on a fresh cell. One leader computes
	// (cold); the rest arrive while it is in flight and coalesce. Retry
	// with further fresh keys in the unlikely event the leader finishes
	// before any follower arrives.
	herd := func(url string) map[string]int {
		outcomes := make(map[string]int)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, res := getResult(url, "")
				mu.Lock()
				outcomes[res.Outcome]++
				mu.Unlock()
			}()
		}
		wg.Wait()
		return outcomes
	}
	coalesced := false
	for _, procs := range []string{"32", "64"} {
		outcomes := herd(base + "/v1/predict?app=rfcth&procs=" + procs + "&target=ARL_Opteron&metric=9")
		if outcomes["cold"] < 1 {
			t.Errorf("herd at procs=%s produced no cold leader: %v", procs, outcomes)
		}
		if outcomes["coalesced"] >= 1 {
			coalesced = true
			break
		}
	}
	if !coalesced {
		t.Error("no herd produced a coalesced follower")
	}

	// Shut down with a fresh cold request in flight: it either completes
	// or is cancelled into a 504 during the drain — both must leave the
	// logs whole.
	inflight := make(chan struct{})
	go func() {
		defer close(inflight)
		resp, err := http.Get(base + "/v1/predict?app=avus&target=ARL_Opteron&observed=1")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	<-inflight
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v, want clean drain", err)
	}

	// Both logs must parse end to end — the readers reject torn tails —
	// and cross-validate as a pair.
	spanFile, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	defer spanFile.Close()
	spans, err := obs.ReadJSONL[obs.SpanRecord](spanFile)
	if err != nil {
		t.Fatalf("span log did not survive the drain: %v", err)
	}
	accessFile, err := os.Open(accessPath)
	if err != nil {
		t.Fatal(err)
	}
	defer accessFile.Close()
	accs, err := obs.ReadJSONL[obs.AccessRecord](accessFile)
	if err != nil {
		t.Fatalf("access log did not survive the drain: %v", err)
	}

	stats, err := obs.CheckServeLogs(spans, accs)
	if err != nil {
		t.Fatalf("CheckServeLogs: %v", err)
	}
	for _, outcome := range []string{"cold", "cached", "coalesced"} {
		if stats.Outcomes[outcome] < 1 {
			t.Errorf("log pair demonstrates no %q outcome: %v", outcome, stats.Outcomes)
		}
	}
	if stats.CoalescedSpans < 1 {
		t.Error("span log holds no verified coalesced wait span")
	}

	// The caller-supplied trace round-tripped into the access log and
	// resolves to a root span.
	joined := false
	for _, a := range accs {
		if a.Trace == callerTrace && a.Endpoint == "predict" && a.Status == http.StatusOK {
			joined = true
			break
		}
	}
	if !joined {
		t.Errorf("access log has no record under caller trace %s", callerTrace)
	}
}
