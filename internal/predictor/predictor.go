// Package predictor is the answer to the paper's procurement question as
// a callable facade: "how fast will application X's test case C run on
// machine Y at Z processors, by metric M?" — a memoizing, coalescing
// Predictor that the predict CLI and the predictd server ask, built for
// concurrent serving. The study runs and observes through a Predictor's
// layers too, under a World that adds observation noise (see World), so a
// served answer and the study's number for the same cell and World are
// one computation.
//
// Probes and trace signatures are deterministic functions of their
// inputs, so the Predictor caches them with exact hits, keyed
// per-machine and per-(app, case, procs); full predictions and observed
// ground truths are cached the same way. A thundering herd of identical
// cold requests runs each underlying computation exactly once: the
// first requester leads, the rest coalesce onto its in-flight slot (see
// cache). Request deadlines propagate end to end — the leader computes
// under its own request context, and a follower whose deadline expires
// abandons the wait without cancelling anyone else's work.
package predictor

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/metrics"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/par"
	"hpcmetrics/internal/probes"
	"hpcmetrics/internal/simexec"
	"hpcmetrics/internal/trace"
	"hpcmetrics/internal/workload"
)

// ErrBadRequest marks request-validation failures — unknown application,
// case, machine, or metric, or an unusable processor count — so a server
// can map them to 400 instead of 500. Test with errors.Is.
var ErrBadRequest = errors.New("predictor: bad request")

// Request names one prediction cell.
type Request struct {
	// App and Case name the test case ("avus", "standard"); an empty
	// Case matches the application's first case, like the CLI.
	App  string
	Case string
	// Procs is the processor count; 0 means the test case's middle
	// (default) count.
	Procs int
	// Machine is the target system preset name.
	Machine string
	// MetricID is the paper Table 3 metric number (1-9).
	MetricID int
	// Observed additionally runs the ground-truth executor on the
	// target, filling ObservedSeconds/SignedErrorPct when the job fits.
	Observed bool
}

// Result is one answered prediction.
type Result struct {
	App     string `json:"app"`
	Case    string `json:"case"`
	Procs   int    `json:"procs"`
	Machine string `json:"machine"`

	MetricID    int    `json:"metric"`
	MetricLabel string `json:"metric_label"`
	MetricName  string `json:"metric_name"`

	// BaseMachine and BaseSeconds anchor the prediction: the observed
	// runtime on the base system that every metric scales from.
	BaseMachine string  `json:"base_machine"`
	BaseSeconds float64 `json:"base_seconds"`

	// PredictedSeconds is the metric's runtime prediction on Machine.
	PredictedSeconds float64 `json:"predicted_seconds"`

	// Fits reports whether the job fits on the machine at all; a
	// prediction is still produced for an oversized job (the paper's
	// blank appendix cells), there is just no ground truth to check.
	Fits bool `json:"fits"`
	// ObservedSeconds and SignedErrorPct carry the ground truth and the
	// paper's Equation 2 error; valid only when HasObserved.
	HasObserved     bool    `json:"has_observed"`
	ObservedSeconds float64 `json:"observed_seconds,omitempty"`
	SignedErrorPct  float64 `json:"signed_error_pct,omitempty"`

	// Cached reports whether the prediction came from the exact cache
	// (or a coalesced wait on another request's computation) rather
	// than this request leading a computation on any layer.
	Cached bool `json:"cached"`
	// Outcome classifies the request against the caches, taking the
	// coldest layer touched: "cold" when this request led at least one
	// underlying computation, "coalesced" when it led nothing but
	// waited on another request's in-flight computation, "cached" when
	// every layer was an exact settled hit.
	Outcome string `json:"outcome"`
}

// RankRequest asks for machines ordered fastest-first for one cell.
type RankRequest struct {
	App      string
	Case     string
	Procs    int
	MetricID int
	// Machines restricts and orders the candidate set; empty means the
	// study's ten target systems. A machine may appear once.
	Machines []string
	// Observed fills ground truths for every ranked machine.
	Observed bool
}

// Ranking is a rank response: entries sorted by predicted runtime,
// fastest first, ties broken by machine name.
type Ranking struct {
	App         string    `json:"app"`
	Case        string    `json:"case"`
	Procs       int       `json:"procs"`
	MetricID    int       `json:"metric"`
	MetricLabel string    `json:"metric_label"`
	Entries     []*Result `json:"ranking"`
	// Outcome folds the entries' outcomes the way Result.Outcome folds
	// one request's layers: the coldest wins. It is for access logs,
	// not the response body.
	Outcome string `json:"-"`
}

// Cell is one (application, case, processor count) cell's base-system
// work, the two artifacts the paper stresses are collected "only once per
// application": the observed base runtime every metric scales from, and
// the trace.
type Cell struct {
	BaseSeconds float64
	Trace       *trace.Trace
}

// observation is the memoized per-(cell, machine) ground truth.
type observation struct {
	seconds float64
	fits    bool
}

// Predictor serves predictions with exact-hit memoization and request
// coalescing on every deterministic layer: probe suites per machine,
// (base run, trace) per cell, predictions per (cell, machine, metric),
// and ground truths per (cell, machine). Each layer's computation moves
// one obs counter — predictor_{probe,exec,trace,metric}_runs_total — so
// a caller's registry shows how many underlying computations actually
// ran: N coalesced requests move predictor_metric_runs_total by exactly
// 1. Goroutine-safe; build with New.
type Predictor struct {
	base    *machine.Config
	workers int
	world   World

	probeCache   *cache
	cellCache    *cache
	predictCache *cache
	observeCache *cache
}

// Config tunes a Predictor.
type Config struct {
	// Workers bounds Rank's per-machine fan-out; 0 means GOMAXPROCS.
	Workers int
	// World sets observation noise and the ablations; the zero World is
	// the plain model every server and CLI answers from.
	World World
}

// New returns a Predictor with empty caches, anchored to the study's
// base system.
func New(cfg Config) *Predictor {
	return &Predictor{
		base:         machine.Base(),
		workers:      cfg.Workers,
		world:        cfg.World,
		probeCache:   newCache("predictor_probe_cache", "probes"),
		cellCache:    newCache("predictor_cell_cache", "cell"),
		predictCache: newCache("predictor_predict_cache", "predict"),
		observeCache: newCache("predictor_observe_cache", "observe"),
	}
}

// colder folds two outcomes into one: the coldest wins (cold >
// coalesced > cached), so a request's outcome is its coldest layer's and
// a ranking's its coldest entry's.
func colder(a, b hitKind) hitKind {
	heat := func(k hitKind) int {
		switch k {
		case hitMiss:
			return 2
		case hitCoalesced:
			return 1
		}
		return 0
	}
	if heat(b) > heat(a) {
		return b
	}
	return a
}

// resolved is a validated request.
type resolved struct {
	tc     apps.TestCase
	procs  int
	cell   string // workload.CellID of (tc, procs): the cell's cache key
	target *machine.Config
	metric metrics.Metric
}

func (p *Predictor) resolve(app, caseName string, procs int, machineName string, metricID int) (resolved, error) {
	var r resolved
	tc, err := apps.Lookup(app, caseName)
	if err != nil {
		return r, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if procs == 0 {
		if procs, err = tc.DefaultProcs(); err != nil {
			return r, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	if procs < 1 {
		return r, fmt.Errorf("%w: procs %d, want >= 1", ErrBadRequest, procs)
	}
	if procs > p.base.TotalProcs { // every prediction scales from a base run
		return r, fmt.Errorf("%w: procs %d exceeds the base system %s's %d processors",
			ErrBadRequest, procs, p.base.Name, p.base.TotalProcs)
	}
	target, err := machine.Preset(machineName)
	if err != nil {
		return r, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	m, err := metrics.ByID(metricID)
	if err != nil {
		return r, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return resolved{tc: tc, procs: procs, cell: workload.CellID(tc.ID(), procs), target: target, metric: m}, nil
}

// Cell runs the cell's base-system ground truth and collects its trace,
// both under the Predictor's World. Cell and Observe are the world-aware
// layers uncached: Predict and Rank memoize them, and the study calls
// them directly under its own retry and checkpoint journal. The probe
// and metric layers need no world; the study calls probes.MeasureContext
// and Metric.PredictContext itself.
func (p *Predictor) Cell(ctx context.Context, tc apps.TestCase, procs int) (Cell, error) {
	app, err := tc.Instance(procs)
	if err != nil {
		return Cell{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	meter := obs.From(ctx).Meter()
	meter.Counter("predictor_exec_runs_total").Inc()
	run, err := simexec.ExecuteContext(ctx, p.world.runOn(p.base), app)
	if err != nil {
		return Cell{}, err
	}
	meter.Counter("predictor_trace_runs_total").Inc()
	tr, err := trace.CollectContext(ctx, p.base, app)
	if err != nil {
		return Cell{}, err
	}
	return Cell{
		BaseSeconds: p.world.observe(run.Seconds, workload.CellID(tc.ID(), procs), p.base.Name),
		Trace:       p.world.traced(tr),
	}, nil
}

// Observe runs the cell's ground truth on target under the Predictor's
// World. A job larger than target fails with simexec.ErrTooLarge.
func (p *Predictor) Observe(ctx context.Context, tc apps.TestCase, procs int, target *machine.Config) (float64, error) {
	app, err := tc.Instance(procs)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	obs.From(ctx).Meter().Counter("predictor_exec_runs_total").Inc()
	run, err := simexec.ExecuteContext(ctx, p.world.runOn(target), app)
	if err != nil {
		return 0, err
	}
	return p.world.observe(run.Seconds, workload.CellID(tc.ID(), procs), target.Name), nil
}

// probesFor returns the machine's memoized probe suite.
func (p *Predictor) probesFor(ctx context.Context, cfg *machine.Config) (*probes.Results, hitKind, error) {
	v, kind, err := p.probeCache.get(ctx, cfg.Name, func(ctx context.Context) (any, error) {
		obs.From(ctx).Meter().Counter("predictor_probe_runs_total").Inc()
		return probes.MeasureContext(ctx, cfg)
	})
	if err != nil {
		return nil, kind, err
	}
	return v.(*probes.Results), kind, nil
}

// cellFor returns the cell's memoized base run and trace.
func (p *Predictor) cellFor(ctx context.Context, r resolved) (Cell, hitKind, error) {
	v, kind, err := p.cellCache.get(ctx, r.cell, func(ctx context.Context) (any, error) {
		return p.Cell(ctx, r.tc, r.procs)
	})
	if err != nil {
		return Cell{}, kind, err
	}
	return v.(Cell), kind, nil
}

// observeFor returns the cell's memoized ground truth on the target.
func (p *Predictor) observeFor(ctx context.Context, r resolved) (observation, hitKind, error) {
	v, kind, err := p.observeCache.get(ctx, r.cell+"|"+r.target.Name, func(ctx context.Context) (any, error) {
		seconds, err := p.Observe(ctx, r.tc, r.procs, r.target)
		if errors.Is(err, simexec.ErrTooLarge) {
			return observation{}, nil
		}
		if err != nil {
			return nil, err
		}
		return observation{seconds: seconds, fits: true}, nil
	})
	if err != nil {
		return observation{}, kind, err
	}
	return v.(observation), kind, nil
}

// Predict answers one request. Identical concurrent cold requests are
// coalesced: the probe suites, the base run + trace, and the prediction
// itself each run exactly once. The result's Outcome reports the
// coldest cache layer the request touched. A request is validated in
// full before any layer computes.
func (p *Predictor) Predict(ctx context.Context, req Request) (*Result, error) {
	res, _, err := p.predict(ctx, req)
	return res, err
}

// predict is Predict plus the request's outcome as a hitKind, for Rank
// to fold.
func (p *Predictor) predict(ctx context.Context, req Request) (*Result, hitKind, error) {
	r, err := p.resolve(req.App, req.Case, req.Procs, req.Machine, req.MetricID)
	if err != nil {
		return nil, hitMiss, err
	}
	outcome := hitSettled
	basePr, kind, err := p.probesFor(ctx, p.base)
	if err != nil {
		return nil, hitMiss, err
	}
	outcome = colder(outcome, kind)
	targetPr, kind, err := p.probesFor(ctx, r.target)
	if err != nil {
		return nil, hitMiss, err
	}
	outcome = colder(outcome, kind)
	cell, kind, err := p.cellFor(ctx, r)
	if err != nil {
		return nil, hitMiss, err
	}
	outcome = colder(outcome, kind)
	predKey := r.cell + "|" + r.target.Name + "|" + strconv.Itoa(r.metric.ID)
	v, kind, err := p.predictCache.get(ctx, predKey, func(ctx context.Context) (any, error) {
		obs.From(ctx).Meter().Counter("predictor_metric_runs_total").Inc()
		return r.metric.PredictContext(ctx, metrics.Context{
			Trace: cell.Trace, Base: basePr, Target: targetPr, BaseSeconds: cell.BaseSeconds,
		})
	})
	if err != nil {
		return nil, hitMiss, err
	}
	outcome = colder(outcome, kind)
	res := &Result{
		App: r.tc.Name, Case: r.tc.Case, Procs: r.procs, Machine: r.target.Name,
		MetricID: r.metric.ID, MetricLabel: r.metric.Label(), MetricName: r.metric.Name,
		BaseMachine: p.base.Name, BaseSeconds: cell.BaseSeconds,
		PredictedSeconds: v.(float64),
		Fits:             r.procs <= r.target.TotalProcs,
	}
	if req.Observed {
		o, kind, err := p.observeFor(ctx, r)
		if err != nil {
			return nil, hitMiss, err
		}
		outcome = colder(outcome, kind)
		if o.fits {
			res.HasObserved = true
			res.ObservedSeconds = o.seconds
			res.SignedErrorPct = metrics.SignedError(res.PredictedSeconds, o.seconds)
		}
		res.Fits = o.fits
	}
	res.Outcome = outcome.String()
	res.Cached = outcome.cached()
	return res, outcome, nil
}

// Rank predicts the cell on every candidate machine — fanned out on the
// shared ctx-aware worker pool, bounded by Config.Workers — and returns
// the machines ordered fastest-first by predicted runtime.
func (p *Predictor) Rank(ctx context.Context, req RankRequest) (*Ranking, error) {
	names := req.Machines
	if len(names) == 0 {
		for _, cfg := range machine.StudyTargets() {
			names = append(names, cfg.Name)
		}
	}
	// Validate the whole request up front so a bad machine name is a
	// clean ErrBadRequest, not a joined pool error.
	r, err := p.resolve(req.App, req.Case, req.Procs, names[0], req.MetricID)
	if err != nil {
		return nil, err
	}
	// A repeated machine is refused, so one request fans out to at most
	// one entry per preset.
	seen := map[string]bool{names[0]: true}
	for _, name := range names[1:] {
		if _, err := machine.Preset(name); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		if seen[name] {
			return nil, fmt.Errorf("%w: machine %s repeated", ErrBadRequest, name)
		}
		seen[name] = true
	}
	entries := make([]*Result, len(names))
	kinds := make([]hitKind, len(names))
	err = par.ForEachIndexed(ctx, len(names), p.workers, "predictor", func(ctx context.Context, i int) error {
		res, kind, err := p.predict(ctx, Request{
			App: req.App, Case: req.Case, Procs: req.Procs,
			Machine: names[i], MetricID: req.MetricID, Observed: req.Observed,
		})
		if err != nil {
			return fmt.Errorf("rank %s: %w", names[i], err)
		}
		entries[i], kinds[i] = res, kind
		return nil
	})
	if err != nil {
		return nil, err
	}
	outcome := hitSettled
	for _, k := range kinds {
		outcome = colder(outcome, k)
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].PredictedSeconds < entries[j].PredictedSeconds {
			return true
		}
		if entries[j].PredictedSeconds < entries[i].PredictedSeconds {
			return false
		}
		return entries[i].Machine < entries[j].Machine
	})
	return &Ranking{
		App: r.tc.Name, Case: r.tc.Case, Procs: r.procs,
		MetricID: r.metric.ID, MetricLabel: r.metric.Label(),
		Entries: entries, Outcome: outcome.String(),
	}, nil
}

// CacheStat is one memoization layer's live view: how many keys it
// holds and how traffic against it resolved.
type CacheStat struct {
	// Keys is the layer's keyspace size (settled + in-flight slots).
	Keys int `json:"keys"`
	// Hits counts exact settled hits; Misses counts led computations;
	// Coalesced counts waits on another request's in-flight slot.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
}

// CacheStats reports each memoization layer's keyspace size and
// hit/miss/coalesce traffic — the backing for /v1/cache and /v1/status.
// The counts are the predictor's own (process-lifetime), independent of
// any obs registry on request contexts.
func (p *Predictor) CacheStats() map[string]CacheStat {
	return map[string]CacheStat{
		"probes":       p.probeCache.stat(),
		"cells":        p.cellCache.stat(),
		"predictions":  p.predictCache.stat(),
		"observations": p.observeCache.stat(),
	}
}
