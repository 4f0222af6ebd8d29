package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/metrics"
	"hpcmetrics/internal/predictor"
)

const (
	// coldTarget and coldMetric fix what a cold request asks; the cell is
	// what varies.
	coldTarget = machine.ARLOpteron
	coldMetric = 9
	// hotConns is the hot closed loop's connection count: one per core
	// of the two-core host the benchmark was designed on.
	hotConns = 2
)

var (
	// coldProcs are off-paper processor counts, so no cold cell is one
	// the server has seen, and every machine accepts them. Each test
	// case's cold cost is nearly flat across them, so rounds hold about
	// the same work.
	coldProcs = []int{100, 104, 108, 112, 116, 120}
	// hotProcs and hotTargets span the hot keyspace: the hycom paper
	// cells on a new target and on the base system itself.
	hotProcs   = []int{59, 96, 124}
	hotTargets = []string{machine.ARLOpteron, machine.BaseSystemName}
)

// warmPath is the throwaway request that warms the base system's and the
// cold target's probe suites during serve-cold set-up; it is a paper
// cell, so it is never one of the timed cells.
var warmPath = predictPath("hycom", "standard", 59, coldTarget, coldMetric)

func predictPath(app, kase string, procs int, target string, metric int) string {
	return fmt.Sprintf("/v1/predict?app=%s&case=%s&procs=%d&target=%s&metric=%d", app, kase, procs, target, metric)
}

func rankPath(app, kase string, procs, metric int, targets []string) string {
	return fmt.Sprintf("/v1/rank?app=%s&case=%s&procs=%d&metric=%d&targets=%s", app, kase, procs, metric, strings.Join(targets, ","))
}

// coldCell is one never-seen cold request.
type coldCell struct {
	tc    apps.TestCase
	procs int
}

func (c coldCell) path() string {
	return predictPath(c.tc.Name, c.tc.Case, c.procs, coldTarget, coldMetric)
}

// coldRounds is the seeded request order. Round j asks every test case
// once, at coldProcs[j], in an order drawn from the seed. Every run thus
// holds the same cells in its first rounds: which test case waits behind
// which changes with the seed, the work does not, and no cell repeats
// within a run.
func coldRounds(seed uint64) [][]coldCell {
	rng := rand.New(rand.NewPCG(seed, 0xC01D))
	tcs := apps.Registry()
	rounds := make([][]coldCell, len(coldProcs))
	for j, procs := range coldProcs {
		for _, i := range rng.Perm(len(tcs)) {
			rounds[j] = append(rounds[j], coldCell{tc: tcs[i], procs: procs})
		}
	}
	return rounds
}

// hotKey is one warmed request of the hot keyspace.
type hotKey struct {
	path   string
	rank   bool
	procs  int
	target string // predict only
	metric int
}

// hotKeys is the hot keyspace in a fixed order: every hycom paper cell
// on both targets under all nine metrics, and the rank over both
// targets of every cell and metric.
func hotKeys() []hotKey {
	var keys []hotKey
	for _, procs := range hotProcs {
		for _, target := range hotTargets {
			for m := 1; m <= 9; m++ {
				keys = append(keys, hotKey{path: predictPath("hycom", "standard", procs, target, m), procs: procs, target: target, metric: m})
			}
		}
	}
	for _, procs := range hotProcs {
		for m := 1; m <= 9; m++ {
			keys = append(keys, hotKey{path: rankPath("hycom", "standard", procs, m, hotTargets), rank: true, procs: procs, metric: m})
		}
	}
	return keys
}

// hotPicker returns connection conn's seeded sequence of key indexes.
func hotPicker(seed uint64, conn, n int) func() int {
	rng := rand.New(rand.NewPCG(seed, uint64(conn)+1))
	return func() int { return rng.IntN(n) }
}

// served holds the recorded responses: as first answered by a fresh
// server (cold) and as answered from cache (hot). One URL may be in
// both with different bodies.
type served struct {
	Cold map[string]string `json:"cold"`
	Hot  map[string]string `json:"hot"`
}

func loadServed(e *env) (*served, error) {
	var s served
	return &s, loadJSON(e, servedFile, &s)
}

// checkServed checks one response against its recorded body.
func checkServed(sv map[string]string, path string, status int, body []byte) error {
	want, ok := sv[path]
	if !ok {
		return fmt.Errorf("%s: no recorded response", path)
	}
	return checkResponse(path, status, body, []byte(want))
}

// setUp boots the workload setupRepeats times, keeping the last server
// and returning every set-up time.
func setUp(boot func(n int) (*server, time.Duration, error)) (*server, []float64, error) {
	var setups []float64
	var s *server
	for n := 0; n < setupRepeats; n++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, nil, err
			}
		}
		var d time.Duration
		var err error
		if s, d, err = boot(n); err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
	}
	return s, setups, nil
}

// bootCold starts predictd and warms the base system's and the cold
// target's probe suites through one throwaway cell.
func bootCold(ctx context.Context, e *env, sv map[string]string, n int, t *tally) (*server, time.Duration, error) {
	start := time.Now()
	s, err := startServer(ctx, e, n)
	if err != nil {
		return nil, 0, err
	}
	status, body, err := get(ctx, newClient(1), s.url+warmPath)
	if err != nil {
		return nil, 0, errors.Join(err, s.stop())
	}
	t.check(checkServed(sv, warmPath, status, body))
	return s, time.Since(start), nil
}

// bootHot starts predictd, warms every hot key, then fetches each again
// and checks the cached body against the recorded one. The checked
// bodies are what every timed response must equal byte for byte.
func bootHot(ctx context.Context, e *env, sv map[string]string, keys []hotKey, n int, t *tally) (*server, [][]byte, time.Duration, error) {
	start := time.Now()
	s, err := startServer(ctx, e, n)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(1)
	for _, k := range keys {
		status, _, err := get(ctx, c, s.url+k.path)
		if err != nil {
			return nil, nil, 0, errors.Join(err, s.stop())
		}
		if status != http.StatusOK {
			t.check(fmt.Errorf("%s: warm-up status %d", k.path, status))
		}
	}
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		status, body, err := get(ctx, c, s.url+k.path)
		if err != nil {
			return nil, nil, 0, errors.Join(err, s.stop())
		}
		t.check(checkServed(sv, k.path, status, body))
		bodies[i] = body
	}
	return s, bodies, time.Since(start), nil
}

// A serve run's timed phase is cut into windows — serve-cold's rounds,
// serve-hot's hotWindows equal slices of -seconds — and each metric is
// the median over windows, so a slow spell on a shared host moves one
// window rather than the run.
const hotWindows = 15

// window is one slice of the timed phase, as offsets from its start,
// with the server's CPU time and peak resident set within it.
type window struct {
	start, end time.Duration
	cpu        time.Duration
	rssMB      float64
}

// sample is one timed request: its latency and when it completed.
type sample struct {
	ms  float64
	end time.Duration
}

func latencies(samples []sample) []float64 {
	ms := make([]float64, len(samples))
	for i, s := range samples {
		ms[i] = s.ms
	}
	return ms
}

// measureCold asks never-seen cells on one connection, a closed loop: it
// starts a round of five while -seconds have not passed and always
// finishes the round, so every run holds whole rounds. Each round is a
// window.
func measureCold(ctx context.Context, e *env) (out *outcome, err error) {
	sv, err := loadServed(e)
	if err != nil {
		return nil, err
	}
	out = newOutcome()
	s, setups, err := setUp(func(n int) (*server, time.Duration, error) { return bootCold(ctx, e, sv.Cold, n, &out.tally) })
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.stop()) }()

	c := newClient(1)
	var lats []sample
	var wins []window
	start := time.Now()
	for _, round := range coldRounds(e.seed) {
		if len(wins) > 0 && time.Since(start) >= e.seconds {
			break
		}
		cpu0, err := s.mark()
		if err != nil {
			return nil, err
		}
		w := window{start: time.Since(start)}
		for _, cell := range round {
			path := cell.path()
			t0 := time.Now()
			status, body, err := get(ctx, c, s.url+path)
			lats = append(lats, sample{ms: time.Since(t0).Seconds() * 1e3, end: time.Since(start)})
			if err == nil {
				err = checkServed(sv.Cold, path, status, body)
			}
			out.check(err)
		}
		w.end = time.Since(start)
		if w.cpu, w.rssMB, err = s.since(cpu0); err != nil {
			return nil, err
		}
		wins = append(wins, w)
	}
	setServeMetrics(out, setups, lats, wins)
	return out, nil
}

// measureHot sends a seeded mix of warmed keys on hotConns connections,
// each a closed loop, for -seconds.
func measureHot(ctx context.Context, e *env) (out *outcome, err error) {
	sv, err := loadServed(e)
	if err != nil {
		return nil, err
	}
	keys := hotKeys()
	out = newOutcome()
	var bodies [][]byte
	s, setups, err := setUp(func(n int) (*server, time.Duration, error) {
		s, b, d, err := bootHot(ctx, e, sv.Hot, keys, n, &out.tally)
		bodies = b
		return s, d, err
	})
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.stop()) }()

	lats, wins, err := hotPhase(ctx, e, s, keys, bodies, &out.tally, nil, true)
	if err != nil {
		return nil, err
	}
	setServeMetrics(out, setups, lats, wins)
	if p99, ok := percentile(latencies(lats), 0.99); ok {
		out.detail["p99_ms"] = p99
	}
	return out, nil
}

// hotPhase runs the hot closed loops until -seconds pass and returns
// every request and the windows. With rec, every request is also a
// span; with measure, each window also reads the server's CPU time and
// peak resident set.
func hotPhase(ctx context.Context, e *env, s *server, keys []hotKey, bodies [][]byte, t *tally, rec *recorder, measure bool) ([]sample, []window, error) {
	c := newClient(hotConns)
	type connResult struct {
		lats []sample
		tally
	}
	results := make([]connResult, hotConns)
	var cpu0 time.Duration
	if measure {
		var err error
		if cpu0, err = s.mark(); err != nil {
			return nil, nil, err
		}
	}
	start := time.Now()
	deadline := start.Add(e.seconds)
	var wg sync.WaitGroup
	for i := 0; i < hotConns; i++ {
		wg.Add(1)
		go func(r *connResult, pick func() int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				k := pick()
				id := 0
				if rec != nil {
					id = rec.begin(0, "predictd.request", keys[k].path)
				}
				t0 := time.Now()
				status, body, err := get(ctx, c, s.url+keys[k].path)
				r.lats = append(r.lats, sample{ms: time.Since(t0).Seconds() * 1e3, end: time.Since(start)})
				if rec != nil {
					rec.end(id)
				}
				if err == nil {
					err = checkHot(keys[k].path, status, body, bodies[k])
				}
				r.check(err)
			}
		}(&results[i], hotPicker(e.seed, i, len(keys)))
	}

	var wins []window
	var werr error
	for n := 1; n <= hotWindows; n++ {
		if n < hotWindows {
			timer := time.NewTimer(time.Until(start.Add(e.seconds * time.Duration(n) / hotWindows)))
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
			}
		} else {
			wg.Wait() // the last window ends with the last request
		}
		w := window{end: time.Since(start)}
		if len(wins) > 0 {
			w.start = wins[len(wins)-1].end
		}
		if measure && werr == nil {
			var cpu time.Duration
			if cpu, w.rssMB, werr = s.since(cpu0); werr == nil {
				w.cpu = cpu
				cpu0, werr = s.mark()
			}
		}
		wins = append(wins, w)
	}

	var lats []sample
	for _, r := range results {
		lats = append(lats, r.lats...)
		t.add(r.tally)
	}
	return lats, wins, werr
}

// checkHot fails unless a hot response is a 200 whose body is exactly
// the one checked at set-up.
func checkHot(path string, status int, body, want []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, status)
	}
	return checkBytes(path, body, want)
}

// setServeMetrics reports each serve metric as the median over windows
// of that window's value; a request belongs to the window it completed
// in.
func setServeMetrics(out *outcome, setups []float64, lats []sample, wins []window) {
	var p50s, rates, cpus, rss []float64
	for _, w := range wins {
		var ms []float64
		for _, l := range lats {
			if l.end > w.start && l.end <= w.end {
				ms = append(ms, l.ms)
			}
		}
		if len(ms) == 0 {
			continue
		}
		p50s = append(p50s, median(ms))
		rates = append(rates, float64(len(ms))/(w.end-w.start).Seconds())
		cpus = append(cpus, w.cpu.Seconds()*1e3/float64(len(ms)))
		rss = append(rss, w.rssMB)
	}
	out.set("setup_s", median(setups), "s")
	out.set("p50_ms", median(p50s), "ms")
	out.set("ops_per_s", median(rates), "1/s")
	out.set("cpu_ms_per_op", median(cpus), "ms")
	out.set("rss_mb", median(rss), "MB")
	out.detail["samples"] = len(lats)
	out.detail["windows"] = len(p50s)
	out.detail["window_p50_ms"] = p50s
	out.detail["window_ops_per_s"] = rates
	out.detail["setup_s"] = setups
	out.detail["window_cpu_ms_per_op"] = cpus
	out.detail["window_rss_mb"] = rss
}

// cacheStats fetches the predictor's per-layer cache counts.
func cacheStats(ctx context.Context, c *http.Client, url string) (map[string]predictor.CacheStat, error) {
	status, body, err := get(ctx, c, url+"/v1/cache")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/v1/cache: status %d", status)
	}
	var st map[string]predictor.CacheStat
	return st, json.Unmarshal(body, &st)
}

// hitRatio is the share of cache lookups between two snapshots that were
// exact settled hits, over every layer.
func hitRatio(before, after map[string]predictor.CacheStat) float64 {
	var hits, lookups int64
	for layer, a := range after {
		b := before[layer]
		hits += a.Hits - b.Hits
		lookups += a.Hits - b.Hits + a.Misses - b.Misses + a.Coalesced - b.Coalesced
	}
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// shedCount reads how many requests the admission gate refused.
func shedCount(ctx context.Context, c *http.Client, url string) (float64, error) {
	status, body, err := get(ctx, c, url+"/metrics")
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("/metrics: status %d", status)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "predictd_shed_total "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, sc.Err() // never incremented: nothing shed
}

// replayCold is the traced serve-cold: one set-up, the probe suites it
// warms replayed in-process, then for each timed cell the cold request
// to the server and the same cell replayed through the layers. Each
// cell costs twice as much as untraced, so fewer cells fit.
func replayCold(ctx context.Context, e *env) (out *outcome, err error) {
	sv, err := loadServed(e)
	if err != nil {
		return nil, err
	}
	rp, err := newReplayer(e, true)
	if err != nil {
		return nil, err
	}
	s, _, err := bootCold(ctx, e, sv.Cold, 0, &rp.tally)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.stop()) }()
	base := machine.Base()
	target, err := machine.Preset(coldTarget)
	if err != nil {
		return nil, err
	}
	m, err := metrics.ByID(coldMetric)
	if err != nil {
		return nil, err
	}
	setup := rp.rec.begin(0, "setup", "serve-cold")
	basePr, err := rp.probeSuite(setup, base)
	if err != nil {
		return nil, err
	}
	targetPr, err := rp.probeSuite(setup, target)
	if err != nil {
		return nil, err
	}
	rp.rec.end(setup)

	c := newClient(1)
	before, err := cacheStats(ctx, c, s.url)
	if err != nil {
		return nil, err
	}
	var cells []replayedCell
	start := time.Now()
	for _, round := range coldRounds(e.seed) {
		if len(cells) > 0 && time.Since(start) >= e.seconds {
			break
		}
		for _, cell := range round {
			path := cell.path()
			id := rp.rec.begin(0, "predictd.request", path)
			status, body, err := get(ctx, c, s.url+path)
			rp.rec.end(id)
			if err == nil {
				err = checkServed(sv.Cold, path, status, body)
			}
			rp.check(err)

			root := rp.rec.begin(0, "replay", path)
			rc, err := rp.cell(root, cell.tc, cell.procs, base, nil)
			if err != nil {
				return nil, err
			}
			if _, err := rp.predict(root, m, rc, basePr, targetPr); err != nil {
				return nil, err
			}
			rp.rec.end(root)
			cells = append(cells, rc)
		}
	}
	after, err := cacheStats(ctx, c, s.url)
	if err != nil {
		return nil, err
	}
	shed, err := shedCount(ctx, c, s.url)
	if err != nil {
		return nil, err
	}

	kernels := rp.rec.begin(0, "kernels", "serve-cold")
	for _, rc := range cells {
		if err := rp.blockKernels(kernels, rc.app, []*machine.Config{base}, true); err != nil {
			return nil, err
		}
	}
	if err := rp.probeKernels(kernels, []*machine.Config{base, target}); err != nil {
		return nil, err
	}
	rp.rec.end(kernels)

	out, err = rp.finish("serve-cold")
	if err != nil {
		return nil, err
	}
	req := rp.rec.stats()["predictd.request"]
	out.set("predictor.cold_cell_s", req.total.Seconds()/float64(req.count), "s")
	out.set("predictor.cell_keys", float64(after["cells"].Keys), "count")
	out.set("predictor.hit_ratio", hitRatio(before, after), "ratio")
	out.set("predictd.shed", shed, "count")
	return out, nil
}

// replayHot is the traced serve-hot: one set-up; the same keyspace warmed
// in an in-process predictor, whose cached answers are timed over whole
// passes of the keyspace (predictor.hit_us, per request of the hot mix);
// then the timed loops with a span per request. predictd.http_us is the
// mean round trip less the in-process hit.
func replayHot(ctx context.Context, e *env) (out *outcome, err error) {
	sv, err := loadServed(e)
	if err != nil {
		return nil, err
	}
	rp, err := newReplayer(e, true)
	if err != nil {
		return nil, err
	}
	keys := hotKeys()
	s, bodies, _, err := bootHot(ctx, e, sv.Hot, keys, 0, &rp.tally)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.stop()) }()

	p := predictor.New(predictor.Config{})
	ask := func(ctx context.Context, k hotKey) (*predictor.Result, error) {
		if k.rank {
			_, err := p.Rank(ctx, predictor.RankRequest{App: "hycom", Case: "standard", Procs: k.procs, MetricID: k.metric, Machines: hotTargets})
			return nil, err
		}
		return p.Predict(ctx, predictor.Request{App: "hycom", Case: "standard", Procs: k.procs, Machine: k.target, MetricID: k.metric})
	}
	warm := rp.rec.begin(0, "predictor.warm", "serve-hot")
	for _, k := range keys {
		res, err := ask(ctx, k)
		if err != nil {
			return nil, err
		}
		if res != nil {
			rp.check(checkLibrary(sv.Hot, k.path, res))
		}
	}
	rp.rec.end(warm)
	passes := 0
	for start := time.Now(); passes == 0 || time.Since(start) < time.Second; passes++ {
		id := rp.rec.begin(0, "predictor.hit", "serve-hot")
		for _, k := range keys {
			if _, err := ask(ctx, k); err != nil {
				return nil, err
			}
		}
		rp.rec.end(id)
	}

	c := newClient(1)
	before, err := cacheStats(ctx, c, s.url)
	if err != nil {
		return nil, err
	}
	lats, _, err := hotPhase(ctx, e, s, keys, bodies, &rp.tally, rp.rec, false)
	if err != nil {
		return nil, err
	}
	after, err := cacheStats(ctx, c, s.url)
	if err != nil {
		return nil, err
	}
	shed, err := shedCount(ctx, c, s.url)
	if err != nil {
		return nil, err
	}

	out, err = rp.finish("serve-hot")
	if err != nil {
		return nil, err
	}
	hit := rp.rec.stats()["predictor.hit"].total.Seconds() * 1e6 / float64(passes*len(keys))
	out.set("predictor.hit_us", hit, "us")
	out.set("predictor.hit_ratio", hitRatio(before, after), "ratio")
	out.set("predictor.cell_keys", float64(after["cells"].Keys), "count")
	rtt := latencies(lats)
	out.set("predictd.http_us", sum(rtt)*1e3/float64(len(rtt))-hit, "us")
	if p99, ok := percentile(rtt, 0.99); ok {
		out.set("predictd.rtt_p99_ms", p99, "ms")
	}
	out.set("predictd.shed", shed, "count")
	return out, nil
}

// checkLibrary checks that the in-process predictor gives the numbers the
// server was recorded serving: one question, one answer.
func checkLibrary(sv map[string]string, path string, res *predictor.Result) error {
	var want map[string]any
	if err := json.Unmarshal([]byte(sv[path]), &want); err != nil {
		return fmt.Errorf("%s: recorded body: %w", path, err)
	}
	for field, got := range map[string]float64{"predicted_seconds": res.PredictedSeconds, "base_seconds": res.BaseSeconds} {
		w, ok := want[field].(float64)
		if !ok || math.Float64bits(w) != math.Float64bits(got) {
			return fmt.Errorf("%s: in-process %s = %v, served %v", path, field, got, want[field])
		}
	}
	return nil
}
