// Package study orchestrates the full SC'05 reproduction: probe every
// system, observe every (application, processor count, system) cell with
// the ground-truth executor, trace every application instance on the base
// system, apply all nine metrics plus the balanced rating, and aggregate
// errors into the paper's tables and figures.
//
// The paper's grid is 5 test cases × 3 processor counts × 10 target
// systems = 150 observations and 9 × 150 = 1,350 predictions; cells whose
// processor count exceeds a machine's size are recorded as missing, like
// the blank entries in the paper's appendix.
package study

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/faults"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/metrics"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/par"
	"hpcmetrics/internal/persist"
	"hpcmetrics/internal/predictor"
	"hpcmetrics/internal/probes"
	"hpcmetrics/internal/retry"
	"hpcmetrics/internal/simexec"
	"hpcmetrics/internal/stats"
	"hpcmetrics/internal/trace"
)

// Key identifies one (application, case, processor count) cell.
type Key struct {
	App   string
	Case  string
	Procs int
}

// String formats the key as "app-case@procs".
func (k Key) String() string { return fmt.Sprintf("%s-%s@%d", k.App, k.Case, k.Procs) }

// AppID returns "app-case".
func (k Key) AppID() string { return k.App + "-" + k.Case }

// Prediction is one of the study's 1,350 predictions.
type Prediction struct {
	MetricID  int
	Key       Key
	Machine   string
	Predicted float64 // seconds
	Actual    float64 // seconds
	SignedErr float64 // Equation 2, percent
}

// BalancedResult is the IDC balanced-rating side experiment.
type BalancedResult struct {
	FixedWeights   stats.Weights3
	FixedSummary   stats.Summary
	OptWeights     stats.Weights3
	OptSummary     stats.Summary
	FixedPredicted []Prediction // MetricID 0: fixed weights
}

// SkipReason classifies why a (cell, system) observation is absent.
type SkipReason string

const (
	// SkipTooLarge marks a cell whose processor count exceeds the
	// machine's size — the paper's blank appendix entries.
	SkipTooLarge SkipReason = "job-too-large"
	// SkipError marks a cell whose target execution failed; the study
	// records the failure and carries on with the remaining cells.
	SkipError SkipReason = "error"
	// SkipTimeout marks a cell whose attempts all outlived
	// Options.CellTimeout — a stalled run reclaimed by its deadline.
	SkipTimeout SkipReason = "timeout"
)

// Skip records why one (cell, system) observation is missing.
type Skip struct {
	Reason SkipReason
	Detail string
	// Attempts is how many attempts ran before the study gave up, so a
	// cell that failed after three retries is distinguishable from one
	// that failed fast. 0 on records predating attempt tracking.
	Attempts int
}

// Results is everything the study produced.
type Results struct {
	BaseName    string
	TargetNames []string // paper Table 5 order
	Cells       []Key    // 15 cells in paper order
	Probes      map[string]*probes.Results
	Observed    map[Key]map[string]float64 // seconds per machine; absent if the job does not fit
	Skips       map[Key]map[string]Skip    // why each absent observation is absent
	BaseTimes   map[Key]float64
	Traces      map[Key]*trace.Trace
	Predictions []Prediction
	Balanced    BalancedResult
}

// SkipFor returns the skip record for one (cell, system) pair, if any.
func (r *Results) SkipFor(key Key, system string) (Skip, bool) {
	s, ok := r.Skips[key][system]
	return s, ok
}

// SkipCounts tallies skips by reason across the whole grid.
func (r *Results) SkipCounts() map[SkipReason]int {
	out := make(map[SkipReason]int)
	for _, byMachine := range r.Skips {
		for _, s := range byMachine {
			out[s.Reason]++
		}
	}
	return out
}

// NoiseAmplitude is the deterministic stand-in for run-to-run variability
// of real observed times (OS jitter, placement, I/O): every recorded
// observation is scaled by a factor in [1-amp, 1+amp] hashed from its
// (cell, machine) identity. The paper's observed times carry such noise
// inherently; without it, a target machine that happens to resemble the
// base would be predicted with implausibly perfect accuracy.
const NoiseAmplitude = 0.10

// observationNoise returns the deterministic noise factor for one cell on
// one machine.
func observationNoise(key Key, machineName string) float64 {
	var h uint64 = 1469598103934665603 // FNV-1a over "cell|machine"
	for _, s := range []string{key.String(), "|", machineName} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	u := float64(h>>11) / float64(uint64(1)<<53) // uniform [0,1)
	return 1 + NoiseAmplitude*(2*u-1)
}

// Options configures a run. The ablation switches exist to quantify how
// much each model ingredient contributes to the study's error structure
// (DESIGN.md calls these out); all are off for the paper reproduction.
type Options struct {
	// Progress, when non-nil, receives one line per completed stage.
	// Parallel stages emit their per-item lines in completion order;
	// each line's content is deterministic, the interleaving is not.
	Progress io.Writer
	// Apps, when non-empty, restricts the study to the named test cases
	// ("avus-standard", ...) — handy for quick partial studies.
	Apps []string
	// Targets, when non-empty, restricts the prediction targets to the
	// named preset systems (paper Table 5 names, e.g. "ARL_Opteron").
	// With Apps this carves the -short and benchmark slices.
	Targets []string
	// Workers bounds the harness's worker pool; 0 means GOMAXPROCS.
	// Results are byte-identical at any worker count: every stage writes
	// into indexed slots, so scheduling never reorders aggregation.
	Workers int
	// DisableNoise turns off the deterministic observation noise.
	DisableNoise bool
	// IdleMemory runs applications on idle-node memory, removing the
	// probe-vs-production loaded-memory gap.
	IdleMemory bool
	// NoDependencyFlags blinds the static analyzer, so Metric #9
	// degenerates to Metric #8.
	NoDependencyFlags bool
	// Obs, when non-nil, collects spans and metrics for the run: every
	// phase becomes a span, and the worker pool reports occupancy, queue
	// wait, and cell completion/skip counters. Nil disables collection
	// with no per-cell allocations, keeping output byte-identical.
	Obs *obs.Obs
	// CellTimeout bounds each attempt of a probe/trace/observe unit: a
	// stalled simulation is reclaimed at the deadline and the attempt
	// retried (see MaxAttempts) or recorded as SkipTimeout. 0 leaves
	// attempts bounded only by the run's context.
	CellTimeout time.Duration
	// MaxAttempts is the per-unit attempt budget: transient failures
	// and attempt timeouts are retried with capped exponential backoff
	// and deterministic jitter until the budget is exhausted. 0 or 1
	// means a single attempt — the pre-robustness behavior.
	MaxAttempts int
	// Faults, when non-nil, arms the pipeline's deterministic fault
	// injector — the chaos harness. Nil injects nothing and costs
	// nothing on the hot path, keeping output byte-identical.
	Faults *faults.Injector
	// CheckpointPath, when non-empty, journals every completed probe
	// and observed cell through the persist checkpoint format, so a
	// cancelled or crashed study can pick up where it left off.
	CheckpointPath string
	// Resume loads an existing CheckpointPath journal and skips the
	// units it already holds instead of starting fresh. The journal's
	// options tag must match this run's options.
	Resume bool
}

// WantsApp reports whether test case id is inside the Apps filter
// (every test case when Apps is empty).
func (o Options) WantsApp(id string) bool {
	if len(o.Apps) == 0 {
		return true
	}
	for _, a := range o.Apps {
		if a == id {
			return true
		}
	}
	return false
}

func (o Options) noise(key Key, machineName string) float64 {
	if o.DisableNoise {
		return 1
	}
	return observationNoise(key, machineName)
}

// retryPolicy is the per-unit policy every probe/trace/observe cell
// runs under. Backoff pacing is fixed; the budget and deadline come
// from the options.
func (o Options) retryPolicy() retry.Policy {
	return retry.Policy{
		MaxAttempts:    o.MaxAttempts,
		AttemptTimeout: o.CellTimeout,
		BaseDelay:      20 * time.Millisecond,
		MaxDelay:       time.Second,
		Retryable:      retryableErr,
	}
}

// retryableErr classifies unit errors: in a deterministic simulator only
// an injected transient fault heals on re-attempt — job-too-large,
// validation failures, and model errors would fail identically again.
// Attempt timeouts are classified inside retry.Do and always retry.
func retryableErr(err error) bool { return errors.Is(err, faults.ErrTransient) }

// skipReasonFor classifies a unit failure for Results.Skips.
func skipReasonFor(err error) SkipReason {
	if retry.TimedOut(err) {
		return SkipTimeout
	}
	return SkipError
}

// optionsTag fingerprints every option that changes what a cell record
// holds, so a resume into a different grid — or under a different
// ablation, fault configuration, retry budget, or attempt deadline —
// fails loudly instead of splicing incompatible results together.
// Attempts and timeout are included because they shape the journaled
// records too: a cell skipped under a tight budget would otherwise be
// replayed verbatim into a run whose budget would have let it succeed.
// Options that only affect scheduling or reporting (Workers, Progress,
// Obs, the checkpoint controls themselves) stay out, so a resume may
// freely change them.
func (o Options) optionsTag() string {
	return fmt.Sprintf("apps=%s;targets=%s;noise=%t;idle=%t;nodeps=%t;attempts=%d;timeout=%s;faults=%s",
		strings.Join(o.Apps, ","), strings.Join(o.Targets, ","),
		o.DisableNoise, o.IdleMemory, o.NoDependencyFlags,
		o.MaxAttempts, o.CellTimeout, o.Faults.Fingerprint())
}

// idle returns the machine with its loaded-memory gap removed, for the
// IdleMemory ablation.
func idle(cfg *machine.Config) *machine.Config {
	out := cfg.Clone()
	out.MemLoadedFraction = 1
	out.MemLoadedLatencyFactor = 1
	return out
}

// studyTargets resolves the prediction-target set: the full paper grid,
// or the Options.Targets subset in the order given.
func (o Options) studyTargets() ([]*machine.Config, error) {
	all := machine.StudyTargets()
	if len(o.Targets) == 0 {
		return all, nil
	}
	byName := make(map[string]*machine.Config, len(all))
	for _, cfg := range all {
		byName[cfg.Name] = cfg
	}
	out := make([]*machine.Config, 0, len(o.Targets))
	for _, name := range o.Targets {
		cfg, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("study: unknown target system %q", name)
		}
		out = append(out, cfg)
	}
	return out, nil
}

// progressLog serializes progress lines from concurrent workers. A nil
// *progressLog (no sink configured) makes logf a no-op, so call sites
// stay unconditional.
type progressLog struct {
	mu sync.Mutex
	w  io.Writer // guarded by mu
}

func newProgressLog(w io.Writer) *progressLog {
	if w == nil {
		return nil
	}
	return &progressLog{w: w}
}

func (l *progressLog) logf(format string, args ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, format+"\n", args...)
}

// engine is the shared compute facade (internal/predictor): the study,
// the predict CLI, and the predictd server all run their probe,
// execution, trace, and metric computations through the same Engine, so
// a number produced by any one of them is byte-identical to the others'.
var engine predictor.Engine

// forEachIndexed is the study's view of the shared ctx-aware worker pool
// (internal/par), reporting under the study_* metric names: the
// study_workers_busy gauge tracks occupancy (its peak is the effective
// parallelism), study_queue_wait_seconds records how long each job sat
// between enqueue and pickup, and study_jobs_total counts dispatches.
func forEachIndexed(ctx context.Context, n, workers int, work func(ctx context.Context, i int) error) error {
	return par.ForEachIndexed(ctx, n, workers, "study", work)
}

// Run executes the full study.
func Run(opts Options) (*Results, error) {
	return RunContext(context.Background(), opts)
}

// RunContext executes the full study under ctx: probing, observation, and
// tracing fan out over a GOMAXPROCS-bounded worker pool, and cancelling
// ctx abandons in-flight simulation promptly (the executor consults the
// context between basic blocks). Output is byte-identical to a sequential
// run — see Options.Workers.
func RunContext(ctx context.Context, opts Options) (*Results, error) {
	ctx = opts.Obs.Inject(ctx)
	ctx = opts.Faults.Inject(ctx)
	ctx, studySpan := obs.StartSpan(ctx, "study")
	defer studySpan.End()
	base := machine.Base()
	targets, err := opts.studyTargets()
	if err != nil {
		return nil, err
	}
	plog := newProgressLog(opts.Progress)
	meter := opts.Obs.Meter()

	res := &Results{
		BaseName:  base.Name,
		Probes:    make(map[string]*probes.Results),
		Observed:  make(map[Key]map[string]float64),
		Skips:     make(map[Key]map[string]Skip),
		BaseTimes: make(map[Key]float64),
		Traces:    make(map[Key]*trace.Trace),
	}
	for _, t := range targets {
		res.TargetNames = append(res.TargetNames, t.Name)
	}

	// The checkpoint journal, when configured: every completed probe and
	// cell is appended, and with Resume the journaled units are replayed
	// instead of re-executed. Nil stays a no-op throughout.
	var cp *persist.Checkpoint
	switch {
	case opts.CheckpointPath != "" && opts.Resume:
		cp, err = persist.OpenCheckpoint(opts.CheckpointPath, opts.optionsTag())
		if err != nil {
			return nil, fmt.Errorf("study: %w", err)
		}
	case opts.CheckpointPath != "":
		cp, err = persist.CreateCheckpoint(opts.CheckpointPath, opts.optionsTag())
		if err != nil {
			return nil, fmt.Errorf("study: %w", err)
		}
	}
	rp := opts.retryPolicy()
	resumed := meter.Counter("study_checkpoint_resumed_total")

	// Stage 1: probe all machines (base + targets), one pool job each.
	// Probes are load-bearing for every later prediction, so a probe
	// that fails after its retry budget is a clean study error, not a
	// skip — but a checkpointed probe is never re-measured.
	all := append([]*machine.Config{base}, targets...)
	prs := make([]*probes.Results, len(all))
	err = forEachIndexed(ctx, len(all), opts.Workers, func(ctx context.Context, i int) error {
		name := all[i].Name
		if rec, ok := cp.Lookup(persist.StageProbe, name); ok && rec.Probes != nil {
			prs[i] = rec.Probes
			resumed.Inc()
			plog.logf("resumed probe %s from checkpoint", name)
			return nil
		}
		var pr *probes.Results
		_, err := retry.Do(ctx, rp, "probe|"+name, func(ctx context.Context) error {
			var err error
			pr, err = engine.Probes(ctx, all[i])
			return err
		})
		if err != nil {
			return fmt.Errorf("study: probing %s: %w", name, err)
		}
		prs[i] = pr
		if err := cp.Append(persist.CellRecord{Stage: persist.StageProbe, Key: name, Probes: pr}); err != nil {
			return fmt.Errorf("study: %w", err)
		}
		plog.logf("probed %s (HPL %.2f GF/s, STREAM %.2f GB/s)", name,
			pr.HPLFlopsPerSec/1e9, pr.StreamBytesPerSec/1e9)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, cfg := range all {
		res.Probes[cfg.Name] = prs[i]
	}

	execTarget := func(cfg *machine.Config) *machine.Config {
		if opts.IdleMemory {
			return idle(cfg)
		}
		return cfg
	}

	// Stage 2: instantiate cells, observe ground truth, trace on base.
	// Each cell is one pool job; slots keep aggregation in paper order no
	// matter which worker finishes first.
	type cellJob struct {
		key   Key
		tc    apps.TestCase
		procs int
	}
	type cellOut struct {
		baseSeconds float64
		tr          *trace.Trace
		obs         map[string]float64
		skips       map[string]Skip
	}
	// recordFromCell / cellFromRecord move one completed cell in and out
	// of the checkpoint journal. JSON round-trips float64 exactly, so a
	// resumed run's numbers are bit-identical to an uninterrupted one.
	recordFromCell := func(key Key, out cellOut) persist.CellRecord {
		rec := persist.CellRecord{
			Stage: persist.StageCell, Key: key.String(),
			BaseSeconds: out.baseSeconds, Trace: out.tr, Observed: out.obs,
		}
		for name, s := range out.skips {
			if rec.Skips == nil {
				rec.Skips = make(map[string]persist.CheckpointSkip, len(out.skips))
			}
			rec.Skips[name] = persist.CheckpointSkip{Reason: string(s.Reason), Detail: s.Detail, Attempts: s.Attempts}
		}
		return rec
	}
	cellFromRecord := func(rec persist.CellRecord) cellOut {
		out := cellOut{baseSeconds: rec.BaseSeconds, tr: rec.Trace, obs: rec.Observed}
		if out.tr != nil && out.obs == nil {
			// A completed cell always has an observation map, even when
			// every target skipped; JSON omits empty maps.
			out.obs = map[string]float64{}
		}
		for name, s := range rec.Skips {
			if out.skips == nil {
				out.skips = make(map[string]Skip, len(rec.Skips))
			}
			out.skips[name] = Skip{Reason: SkipReason(s.Reason), Detail: s.Detail, Attempts: s.Attempts}
		}
		return out
	}
	var cellJobs []cellJob
	for _, tc := range apps.Registry() {
		if !opts.WantsApp(tc.ID()) {
			continue
		}
		for _, procs := range tc.CPUCounts {
			key := Key{App: tc.Name, Case: tc.Case, Procs: procs}
			res.Cells = append(res.Cells, key)
			cellJobs = append(cellJobs, cellJob{key: key, tc: tc, procs: procs})
		}
	}
	completed := meter.Counter("study_cells_completed_total")
	skippedTooLarge := meter.Counter("study_cells_skipped_toolarge_total")
	skippedError := meter.Counter("study_cells_skipped_error_total")
	skippedTimeout := meter.Counter("study_cells_skipped_timeout_total")
	countSkip := func(reason SkipReason, n int64) {
		switch reason {
		case SkipTooLarge:
			skippedTooLarge.Add(n)
		case SkipTimeout:
			skippedTimeout.Add(n)
		default:
			skippedError.Add(n)
		}
	}
	slots := make([]cellOut, len(cellJobs))
	err = forEachIndexed(ctx, len(cellJobs), opts.Workers, func(ctx context.Context, i int) error {
		job := cellJobs[i]
		key := job.key
		ctx, cell := obs.StartSpan(ctx, "observe")
		defer cell.End()
		if cell != nil {
			cell.Annotate("cell", key.String())
		}
		if rec, ok := cp.Lookup(persist.StageCell, key.String()); ok {
			slots[i] = cellFromRecord(rec)
			resumed.Inc()
			if cell != nil {
				cell.Annotate("resumed", "checkpoint")
			}
			plog.logf("resumed %s from checkpoint (%d observations)", key, len(slots[i].obs))
			return nil
		}
		app, err := job.tc.Instance(job.procs)
		if err != nil {
			return fmt.Errorf("study: %s: %w", key, err)
		}

		// Every unit below (base run, trace, per-target observation) is
		// one retryable attempt sequence under the options' budget and
		// deadline; retries counts the extras for the cell's span.
		var retries int
		runUnit := func(site string, op func(context.Context) error) (int, error) {
			attempts, err := retry.Do(ctx, rp, site, op)
			if attempts > 1 {
				retries += attempts - 1
			}
			return attempts, err
		}

		var out cellOut
		// cellFailed downgrades a base/trace failure to a full row of
		// skips: without them no target can be predicted, but losing one
		// cell's row must not lose the run. Parent cancellation still
		// aborts.
		cellFailed := func(attempts int, err error) error {
			if ctx.Err() != nil {
				return fmt.Errorf("study: %s: %w", key, err)
			}
			reason := skipReasonFor(err)
			out = cellOut{skips: make(map[string]Skip, len(targets))}
			for _, cfg := range targets {
				out.skips[cfg.Name] = Skip{Reason: reason, Detail: err.Error(), Attempts: attempts}
			}
			countSkip(reason, int64(len(targets)))
			plog.logf("cell %s failed after %d attempts: %v", key, attempts, err)
			return nil
		}

		var baseRun *simexec.Result
		attempts, err := runUnit("base|"+key.String(), func(ctx context.Context) error {
			r, err := engine.Execute(ctx, execTarget(base), app)
			baseRun = r
			return err
		})
		failed := err != nil
		if failed {
			if aerr := cellFailed(attempts, err); aerr != nil {
				return aerr
			}
		}
		if !failed {
			var tr *trace.Trace
			attempts, err = runUnit("trace|"+key.String(), func(ctx context.Context) error {
				t, err := engine.Trace(ctx, base, app)
				tr = t
				return err
			})
			if err != nil {
				failed = true
				if aerr := cellFailed(attempts, err); aerr != nil {
					return aerr
				}
			} else {
				if opts.NoDependencyFlags {
					for i := range tr.Blocks {
						tr.Blocks[i].ILPLimited = false
					}
				}
				out.baseSeconds = baseRun.Seconds * opts.noise(key, base.Name)
				out.tr = tr
			}
		}
		if !failed {
			out.obs = make(map[string]float64, len(targets))
			for _, cfg := range targets {
				var run *simexec.Result
				attempts, err := runUnit("observe|"+key.String()+"|"+cfg.Name, func(ctx context.Context) error {
					r, err := engine.Execute(ctx, execTarget(cfg), app)
					run = r
					return err
				})
				switch {
				case errors.Is(err, simexec.ErrTooLarge):
					// Missing cell, like the paper's blanks.
					if out.skips == nil {
						out.skips = make(map[string]Skip)
					}
					out.skips[cfg.Name] = Skip{Reason: SkipTooLarge, Detail: err.Error(), Attempts: attempts}
					skippedTooLarge.Inc()
					continue
				case err != nil:
					if ctx.Err() != nil {
						return fmt.Errorf("study: observing %s on %s: %w", key, cfg.Name, err)
					}
					// A real per-target failure loses one observation, not
					// the run: record it so reports can show ERR, and audit
					// the grid via Results.Skips.
					reason := skipReasonFor(err)
					if out.skips == nil {
						out.skips = make(map[string]Skip)
					}
					out.skips[cfg.Name] = Skip{Reason: reason, Detail: err.Error(), Attempts: attempts}
					countSkip(reason, 1)
					plog.logf("observation %s on %s failed after %d attempts: %v", key, cfg.Name, attempts, err)
					continue
				}
				out.obs[cfg.Name] = run.Seconds * opts.noise(key, cfg.Name)
				completed.Inc()
			}
		}
		if cell != nil && retries > 0 {
			cell.Annotate("retries", strconv.Itoa(retries))
		}
		slots[i] = out
		if err := cp.Append(recordFromCell(key, out)); err != nil {
			return fmt.Errorf("study: %w", err)
		}
		if !failed {
			plog.logf("observed %s on %d systems (base %.0f s)", key, len(out.obs), baseRun.Seconds)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, job := range cellJobs {
		if slots[i].tr != nil {
			res.BaseTimes[job.key] = slots[i].baseSeconds
			res.Traces[job.key] = slots[i].tr
		}
		res.Observed[job.key] = slots[i].obs
		if len(slots[i].skips) > 0 {
			res.Skips[job.key] = slots[i].skips
		}
	}

	// Stage 3: the 9 × 150 predictions.
	basePr := res.Probes[res.BaseName]
	for _, m := range metrics.All() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("study: %w", err)
		}
		mctx, mspan := obs.StartSpan(ctx, "predict")
		if mspan != nil {
			mspan.Annotate("metric", m.Label())
		}
		predictLatency := meter.Histogram(fmt.Sprintf("study_predict_seconds_metric_%02d", m.ID))
		for _, key := range res.Cells {
			for _, name := range res.TargetNames {
				actual, ok := res.Observed[key][name]
				if !ok {
					continue
				}
				t0 := predictLatency.StartTimer()
				pred, err := engine.PredictMetric(mctx, m, metrics.Context{
					Trace:       res.Traces[key],
					Base:        basePr,
					Target:      res.Probes[name],
					BaseSeconds: res.BaseTimes[key],
				})
				predictLatency.ObserveSince(t0)
				if err != nil {
					mspan.End()
					return nil, fmt.Errorf("study: metric %s on %s/%s: %w", m.Label(), key, name, err)
				}
				res.Predictions = append(res.Predictions, Prediction{
					MetricID:  m.ID,
					Key:       key,
					Machine:   name,
					Predicted: pred,
					Actual:    actual,
					SignedErr: metrics.SignedError(pred, actual),
				})
			}
		}
		mspan.End()
		plog.logf("metric %s done", m.Label())
	}

	// Stage 4: balanced rating (fixed and optimized weights).
	_, balSpan := obs.StartSpan(ctx, "balanced")
	if err := res.runBalanced(); err != nil {
		balSpan.End()
		return nil, err
	}
	balSpan.End()
	plog.logf("balanced rating: fixed %.0f%%, optimized %.0f%% at weights %.2v",
		res.Balanced.FixedSummary.MeanAbs, res.Balanced.OptSummary.MeanAbs, res.Balanced.OptWeights)

	return res, nil
}

func (r *Results) runBalanced() error {
	pool := make([]*probes.Results, 0, len(r.TargetNames))
	for _, name := range r.TargetNames {
		pool = append(pool, r.Probes[name])
	}
	basePr := r.Probes[r.BaseName]

	var obs []metrics.RatingObservation
	for _, key := range r.Cells {
		for _, name := range r.TargetNames {
			actual, ok := r.Observed[key][name]
			if !ok {
				continue
			}
			obs = append(obs, metrics.RatingObservation{
				Base: basePr, Target: r.Probes[name],
				BaseSeconds: r.BaseTimes[key], ActualSeconds: actual,
			})
		}
	}

	fixed, err := metrics.NewRating(pool, metrics.EqualWeights)
	if err != nil {
		return fmt.Errorf("study: %w", err)
	}
	var fixedErrs []float64
	for _, key := range r.Cells {
		for _, name := range r.TargetNames {
			actual, ok := r.Observed[key][name]
			if !ok {
				continue
			}
			pred, err := fixed.Predict(basePr, r.Probes[name], r.BaseTimes[key])
			if err != nil {
				return fmt.Errorf("study: %w", err)
			}
			signed := metrics.SignedError(pred, actual)
			fixedErrs = append(fixedErrs, signed)
			r.Balanced.FixedPredicted = append(r.Balanced.FixedPredicted, Prediction{
				Key: key, Machine: name, Predicted: pred, Actual: actual, SignedErr: signed,
			})
		}
	}
	r.Balanced.FixedWeights = metrics.EqualWeights
	r.Balanced.FixedSummary = stats.Summarize(fixedErrs)

	w, _, err := metrics.OptimizeRating(pool, obs, 0.05)
	if err != nil {
		return fmt.Errorf("study: %w", err)
	}
	r.Balanced.OptWeights = w
	opt, err := metrics.NewRating(pool, w)
	if err != nil {
		return fmt.Errorf("study: %w", err)
	}
	var optErrs []float64
	for _, o := range obs {
		pred, err := opt.Predict(o.Base, o.Target, o.BaseSeconds)
		if err != nil {
			return fmt.Errorf("study: %w", err)
		}
		optErrs = append(optErrs, metrics.SignedError(pred, o.ActualSeconds))
	}
	r.Balanced.OptSummary = stats.Summarize(optErrs)
	return nil
}

// --- Aggregations ---

// MetricSummary returns the paper's Table 4 row for one metric.
func (r *Results) MetricSummary(metricID int) stats.Summary {
	var errs []float64
	for _, p := range r.Predictions {
		if p.MetricID == metricID {
			errs = append(errs, p.SignedErr)
		}
	}
	return stats.Summarize(errs)
}

// SystemSummary returns the paper's Table 5 cell: mean |error| for one
// (system, metric) pair.
func (r *Results) SystemSummary(system string, metricID int) stats.Summary {
	var errs []float64
	for _, p := range r.Predictions {
		if p.MetricID == metricID && p.Machine == system {
			errs = append(errs, p.SignedErr)
		}
	}
	return stats.Summarize(errs)
}

// CellSummary returns the mean |error| for one (cell, metric) pair across
// systems — one bar of the paper's Figures 3-7.
func (r *Results) CellSummary(key Key, metricID int) stats.Summary {
	var errs []float64
	for _, p := range r.Predictions {
		if p.MetricID == metricID && p.Key == key {
			errs = append(errs, p.SignedErr)
		}
	}
	return stats.Summarize(errs)
}

// AppCells returns the study cells of one application in CPU-count order.
func (r *Results) AppCells(appID string) []Key {
	var out []Key
	for _, k := range r.Cells {
		if k.AppID() == appID {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Procs < out[j].Procs })
	return out
}

// ObservationCount returns how many (cell, system) observations exist.
func (r *Results) ObservationCount() int {
	var n int
	for _, obs := range r.Observed {
		n += len(obs)
	}
	return n
}

// --- Shared singleton ---

var (
	sharedOnce sync.Once
	sharedRes  *Results
	sharedErr  error
)

// Shared runs the full study once per process and caches the outcome.
// Tests, benchmarks, and report generators all share it.
func Shared() (*Results, error) {
	sharedOnce.Do(func() {
		sharedRes, sharedErr = Run(Options{})
	})
	return sharedRes, sharedErr
}

// Correlation is the paper's Section 1 framing ("the correlation of each
// estimator to true performance data"): how well one metric's predictions
// track the observed runtimes across the whole study.
type Correlation struct {
	MetricID int
	N        int
	// Pearson correlates predicted and actual seconds linearly.
	Pearson float64
	// Spearman correlates their ranks — the system-ranking question.
	Spearman float64
}

// MetricCorrelation computes prediction-vs-actual correlation for one
// metric over every observed cell.
func (r *Results) MetricCorrelation(metricID int) (Correlation, error) {
	var pred, actual []float64
	for _, p := range r.Predictions {
		if p.MetricID == metricID {
			pred = append(pred, p.Predicted)
			actual = append(actual, p.Actual)
		}
	}
	pe, err := stats.Pearson(pred, actual)
	if err != nil {
		return Correlation{}, fmt.Errorf("study: metric %d: %w", metricID, err)
	}
	sp, err := stats.Spearman(pred, actual)
	if err != nil {
		return Correlation{}, fmt.Errorf("study: metric %d: %w", metricID, err)
	}
	return Correlation{MetricID: metricID, N: len(pred), Pearson: pe, Spearman: sp}, nil
}
