package study

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcmetrics/internal/obs"
)

// sliceOptions is the 2-app × 2-machine study slice used by the -short
// race path and the cancellation tests.
func sliceOptions() Options {
	return Options{
		Apps:    []string{"avus-standard", "rfcth-standard"},
		Targets: []string{"ARL_Opteron", "MHPCC_P3"},
	}
}

var (
	sliceOnce sync.Once
	sliceRes  *Results
	sliceObs  *obs.Obs
	sliceErr  error
)

// tracedSlice runs the sliceOptions study, traced and on four workers,
// once per test binary: TestStudySliceShort checks its spans and
// counters, TestPredictorParity its numbers, and TestParallelMatchesSequential
// compares it with an untraced single-worker run.
func tracedSlice(t *testing.T) (*Results, *obs.Obs) {
	t.Helper()
	sliceOnce.Do(func() {
		opts := sliceOptions()
		opts.Workers = 4
		opts.Obs = obs.New()
		sliceRes, sliceErr = Run(opts)
		sliceObs = opts.Obs
	})
	if sliceErr != nil {
		t.Fatal(sliceErr)
	}
	return sliceRes, sliceObs
}

// The full study runs once per process via Shared(); every test here reads
// from that single run. This is the repository's primary integration test:
// it exercises machines, probes, workloads, the executor, the tracer, the
// convolver, all nine metrics, and the balanced rating together.

func sharedOrSkip(t *testing.T) *Results {
	t.Helper()
	if testing.Short() {
		t.Skip("full study skipped in -short mode")
	}
	res, err := Shared()
	if err != nil {
		t.Fatalf("study failed: %v", err)
	}
	return res
}

func TestStudyDimensions(t *testing.T) {
	res := sharedOrSkip(t)
	if len(res.Cells) != 15 {
		t.Errorf("cells = %d, want 15 (5 test cases x 3 CPU counts)", len(res.Cells))
	}
	if len(res.TargetNames) != 10 {
		t.Errorf("targets = %d, want 10", len(res.TargetNames))
	}
	if len(res.Probes) != 11 {
		t.Errorf("probe suites = %d, want 11 (base + 10 targets)", len(res.Probes))
	}
	obs := res.ObservationCount()
	// The paper reports 150 observations; our grid loses a few cells to
	// machines smaller than the job, like the paper's blank entries.
	if obs < 135 || obs > 150 {
		t.Errorf("observations = %d, want 135..150", obs)
	}
	if got, want := len(res.Predictions), 9*obs; got != want {
		t.Errorf("predictions = %d, want %d (9 x observations)", got, want)
	}
}

func TestMissingCellsMatchMachineSizes(t *testing.T) {
	res := sharedOrSkip(t)
	// ARL_690_1.7 has 128 processors: AVUS large at 256 and 384 cannot
	// run there (the paper's appendix shows the same blanks).
	k256 := Key{App: "avus", Case: "large", Procs: 256}
	k384 := Key{App: "avus", Case: "large", Procs: 384}
	if _, ok := res.Observed[k256]["ARL_690_1.7"]; ok {
		t.Error("avus-large@256 observed on a 128-processor machine")
	}
	if _, ok := res.Observed[k384]["ARL_Altix"]; ok {
		t.Error("avus-large@384 observed on a 256-processor machine")
	}
	// And every cell that fits is present.
	if _, ok := res.Observed[k384]["NAVO_655"]; !ok {
		t.Error("avus-large@384 missing on the 2832-processor p655")
	}
}

func TestMetric4ReducesToMetric1(t *testing.T) {
	res := sharedOrSkip(t)
	// Paper Table 4: the convolver with FP-only rates must reproduce the
	// simple HPL ratio exactly, cell by cell.
	type cellKey struct {
		k Key
		m string
	}
	m1 := map[cellKey]float64{}
	for _, p := range res.Predictions {
		if p.MetricID == 1 {
			m1[cellKey{p.Key, p.Machine}] = p.Predicted
		}
	}
	for _, p := range res.Predictions {
		if p.MetricID != 4 {
			continue
		}
		want := m1[cellKey{p.Key, p.Machine}]
		if math.Abs(p.Predicted-want) > 1e-6*want {
			t.Fatalf("%s on %s: metric4 %g != metric1 %g", p.Key, p.Machine, p.Predicted, want)
		}
	}
}

func TestHPLIsTheWorstMetric(t *testing.T) {
	res := sharedOrSkip(t)
	hpl := res.MetricSummary(1).MeanAbs
	for id := 2; id <= 9; id++ {
		if id == 4 {
			continue // identical to 1 by construction
		}
		if s := res.MetricSummary(id).MeanAbs; s >= hpl {
			t.Errorf("metric %d (%.0f%%) not better than HPL (%.0f%%)", id, s, hpl)
		}
	}
}

func TestTracedMetricsBeatSimpleAverage(t *testing.T) {
	res := sharedOrSkip(t)
	// The paper's headline: trace-convolution metrics (#6-#9) predict
	// with ~80% accuracy and beat the simple metrics overall.
	simple := (res.MetricSummary(1).MeanAbs + res.MetricSummary(2).MeanAbs +
		res.MetricSummary(3).MeanAbs) / 3
	for id := 6; id <= 9; id++ {
		s := res.MetricSummary(id).MeanAbs
		if s >= simple {
			t.Errorf("metric %d (%.0f%%) not better than the simple-metric mean (%.0f%%)", id, s, simple)
		}
		if s > 25 {
			t.Errorf("metric %d error %.0f%% above the ~80%%-accuracy band", id, s)
		}
	}
}

func TestAllPredictionsFinite(t *testing.T) {
	res := sharedOrSkip(t)
	for _, p := range res.Predictions {
		if p.Predicted <= 0 || math.IsNaN(p.Predicted) || math.IsInf(p.Predicted, 0) {
			t.Fatalf("bad prediction %+v", p)
		}
		if p.Actual <= 0 {
			t.Fatalf("bad actual %+v", p)
		}
	}
}

func TestBalancedRating(t *testing.T) {
	res := sharedOrSkip(t)
	b := res.Balanced
	if b.FixedSummary.N == 0 || b.OptSummary.N == 0 {
		t.Fatal("balanced rating did not run")
	}
	// Optimized weights cannot be worse than fixed weights on the same
	// objective.
	if b.OptSummary.MeanAbs > b.FixedSummary.MeanAbs+1e-9 {
		t.Errorf("optimized %.1f%% worse than fixed %.1f%%",
			b.OptSummary.MeanAbs, b.FixedSummary.MeanAbs)
	}
	var sum float64
	for _, w := range b.OptWeights {
		if w < 0 {
			t.Errorf("negative weight %v", b.OptWeights)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights %v do not sum to 1", b.OptWeights)
	}
	// As in the paper, the fixed equal weighting must not significantly
	// beat the best simple metric.
	best := math.Min(res.MetricSummary(2).MeanAbs, res.MetricSummary(3).MeanAbs)
	if b.FixedSummary.MeanAbs < best*0.8 {
		t.Errorf("fixed balanced rating (%.0f%%) significantly beats best simple metric (%.0f%%), contradicting the paper",
			b.FixedSummary.MeanAbs, best)
	}
}

func TestObservedTimesInPaperRange(t *testing.T) {
	res := sharedOrSkip(t)
	// Times-to-solution should be hours-scale like the appendix tables,
	// not milliseconds or weeks.
	for key, obs := range res.Observed {
		for name, v := range obs {
			if v < 10 || v > 2e5 {
				t.Errorf("%s on %s: observed %.3g s out of plausible range", key, name, v)
			}
		}
	}
}

func TestOpteronFastestP3SlowestOverall(t *testing.T) {
	res := sharedOrSkip(t)
	means := map[string]float64{}
	for _, name := range res.TargetNames {
		var sum float64
		var n int
		for _, key := range res.Cells {
			if v, ok := res.Observed[key][name]; ok {
				sum += v / res.BaseTimes[key]
				n++
			}
		}
		means[name] = sum / float64(n)
	}
	if means["ARL_Opteron"] >= means["MHPCC_P3"] {
		t.Errorf("Opteron (%.2f) not faster than P3 (%.2f) relative to base",
			means["ARL_Opteron"], means["MHPCC_P3"])
	}
}

func TestAggregationHelpers(t *testing.T) {
	res := sharedOrSkip(t)
	s := res.MetricSummary(6)
	if s.N == 0 || s.MeanAbs <= 0 {
		t.Fatalf("MetricSummary degenerate: %+v", s)
	}
	sys := res.SystemSummary(res.TargetNames[0], 6)
	if sys.N != 15 && sys.N != 14 && sys.N != 13 { // cells observed on that system
		t.Errorf("SystemSummary N = %d", sys.N)
	}
	cells := res.AppCells("avus-standard")
	if len(cells) != 3 || cells[0].Procs != 32 {
		t.Fatalf("AppCells = %v", cells)
	}
	cell := res.CellSummary(cells[0], 9)
	if cell.N == 0 {
		t.Fatal("CellSummary empty")
	}
}

// TestStudySliceShort runs the 2-machine × 2-app slice in every mode,
// including -short: it is the fast path that keeps the parallel harness
// (pool, slots, cancellation plumbing) exercised under `go test -race
// -short ./...` without the full study's wall-clock.
func TestStudySliceShort(t *testing.T) {
	res, o := tracedSlice(t)
	if len(res.Cells) != 6 {
		t.Errorf("cells = %d, want 6 (2 test cases x 3 CPU counts)", len(res.Cells))
	}
	if len(res.TargetNames) != 2 {
		t.Errorf("targets = %d, want 2", len(res.TargetNames))
	}
	if len(res.Probes) != 3 {
		t.Errorf("probe suites = %d, want 3 (base + 2 targets)", len(res.Probes))
	}
	obs := res.ObservationCount()
	if got, want := len(res.Predictions), 9*obs; got != want {
		t.Errorf("predictions = %d, want %d (9 x observations)", got, want)
	}
	for _, p := range res.Predictions {
		if p.Predicted <= 0 || math.IsNaN(p.Predicted) || math.IsInf(p.Predicted, 0) {
			t.Fatalf("bad prediction %+v", p)
		}
	}

	// The run was traced: every pipeline phase must appear in the span
	// tree, with counts tied to the slice's shape.
	counts := map[string]int64{}
	for _, st := range o.Tracer.PhaseStats() {
		counts[st.Path] = st.Count
	}
	wantCounts := map[string]int64{
		"study":               1,
		"study/probe":         3, // base + 2 targets
		"study/observe":       6, // one per cell
		"study/observe/trace": 6,
		"study/observe/exec":  18, // per cell: base + 2 targets
		"study/predict":       9,  // one per metric
		"study/balanced":      1,
	}
	for path, want := range wantCounts {
		if counts[path] != want {
			t.Errorf("span count %s = %d, want %d", path, counts[path], want)
		}
	}
	if counts["study/predict/convolve"] == 0 {
		t.Error("no convolve spans under study/predict")
	}
	completed := o.Metrics.Counter("study_cells_completed_total").Value()
	if got, want := completed, int64(res.ObservationCount()); got != want {
		t.Errorf("completed counter = %d, want %d (one per observation)", got, want)
	}
	if n := o.Metrics.Counter("study_cells_skipped_toolarge_total").Value(); n != 0 {
		t.Errorf("too-large counter = %d, want 0 (every slice cell fits)", n)
	}
	if len(res.Skips) != 0 {
		t.Errorf("slice recorded %d skip cells, want none", len(res.Skips))
	}
}

// TestStudySkipReasons runs a slice whose target is smaller than two of
// the app's CPU counts: both absent cells must be recorded as
// job-too-large skips (the paper's expected blanks), not errors.
func TestStudySkipReasons(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an extra study slice")
	}
	opts := Options{
		Apps:    []string{"avus-large"},
		Targets: []string{"ARL_690_1.7"}, // 128 procs: avus-large@256/384 cannot fit
		Obs:     obs.New(),
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SkipCounts()[SkipTooLarge]; got != 2 {
		t.Errorf("too-large skips = %d, want 2", got)
	}
	if got := res.SkipCounts()[SkipError]; got != 0 {
		t.Errorf("error skips = %d, want 0", got)
	}
	for _, procs := range []int{256, 384} {
		key := Key{App: "avus", Case: "large", Procs: procs}
		s, ok := res.SkipFor(key, "ARL_690_1.7")
		if !ok {
			t.Errorf("no skip recorded for %s", key)
			continue
		}
		if s.Reason != SkipTooLarge || !strings.Contains(s.Detail, "exceeds machine size") {
			t.Errorf("skip for %s = %+v, want job-too-large", key, s)
		}
		if _, observed := res.Observed[key]["ARL_690_1.7"]; observed {
			t.Errorf("%s observed despite its skip", key)
		}
	}
	if got := opts.Obs.Metrics.Counter("study_cells_skipped_toolarge_total").Value(); got != 2 {
		t.Errorf("too-large counter = %d, want 2", got)
	}
	if got := opts.Obs.Metrics.Counter("study_cells_completed_total").Value(); got != 1 {
		t.Errorf("completed counter = %d, want 1 (only the 128-CPU cell fits)", got)
	}
}

// TestParallelMatchesSequential pins the harness's determinism contract:
// an untraced single-worker run and the traced four-worker run of the
// same slice are deeply identical, so the Table 4 bytes depend neither
// on scheduling nor on tracing.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the slice study a second time")
	}
	seq := sliceOptions()
	seq.Workers = 1
	seqRes, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	parRes, _ := tracedSlice(t)
	if !reflect.DeepEqual(seqRes.Predictions, parRes.Predictions) {
		t.Error("Predictions differ between Workers=1 and Workers=4")
	}
	if !reflect.DeepEqual(seqRes.BaseTimes, parRes.BaseTimes) {
		t.Error("BaseTimes differ between Workers=1 and Workers=4")
	}
	if !reflect.DeepEqual(seqRes.Observed, parRes.Observed) {
		t.Error("Observed differ between Workers=1 and Workers=4")
	}
	if !reflect.DeepEqual(seqRes.Balanced, parRes.Balanced) {
		t.Error("Balanced rating differs between Workers=1 and Workers=4")
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, sliceOptions())
	if res != nil {
		t.Error("cancelled study returned results")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// cancelOnObserve cancels the study from inside its own progress stream,
// as soon as the first cell completes — a deterministic mid-study cancel.
type cancelOnObserve struct {
	mu     sync.Mutex
	cancel context.CancelFunc
}

func (c *cancelOnObserve) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if strings.Contains(string(p), "observed ") {
		c.cancel()
	}
	return len(p), nil
}

func TestRunContextCancelMidStudy(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := sliceOptions()
	sink := &cancelOnObserve{cancel: cancel}
	opts.Progress = sink

	start := time.Now()
	res, err := RunContext(ctx, opts)
	if res != nil {
		t.Error("cancelled study returned results")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Promptness: the harness must abandon the remaining five cells, not
	// finish them. One cell of this slice simulates in a few seconds, so
	// well under the cost of the full slice is a safe bound.
	if elapsed := time.Since(start); elapsed > 2*time.Minute {
		t.Errorf("cancelled study took %v; cancellation is not prompt", elapsed)
	}
}

func TestUnknownTargetRejected(t *testing.T) {
	opts := sliceOptions()
	opts.Targets = []string{"NO_SUCH_MACHINE"}
	if _, err := Run(opts); err == nil {
		t.Fatal("unknown target name accepted")
	}
}

func TestKeyString(t *testing.T) {
	k := Key{App: "avus", Case: "large", Procs: 384}
	if k.String() != "avus-large@384" || k.AppID() != "avus-large" {
		t.Fatalf("key formatting: %s / %s", k, k.AppID())
	}
}

func TestMetricCorrelations(t *testing.T) {
	res := sharedOrSkip(t)
	// Every metric should correlate positively (machines differ by up to
	// an order of magnitude, which even HPL partially tracks), and the
	// trace-convolution metrics must track performance essentially
	// monotonically.
	var hplRho, bestRho float64
	for id := 1; id <= 9; id++ {
		c, err := res.MetricCorrelation(id)
		if err != nil {
			t.Fatalf("metric %d: %v", id, err)
		}
		if c.N < 100 {
			t.Fatalf("metric %d correlation over %d points", id, c.N)
		}
		if c.Pearson <= 0 || c.Spearman <= 0 {
			t.Errorf("metric %d anticorrelated: r=%.2f rho=%.2f", id, c.Pearson, c.Spearman)
		}
		switch id {
		case 1:
			hplRho = c.Spearman
		case 9:
			bestRho = c.Spearman
			if c.Spearman < 0.9 {
				t.Errorf("metric 9 rank correlation %.2f below 0.9", c.Spearman)
			}
		}
	}
	if bestRho <= hplRho {
		t.Errorf("metric 9 (rho %.2f) does not rank systems better than HPL (rho %.2f)",
			bestRho, hplRho)
	}
}

func TestAblationOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a partial study")
	}
	// A filtered, noise-free, dependency-blind study: cheap (one test
	// case) and checks all three ablation switches.
	res, err := Run(Options{
		Apps:              []string{"rfcth-standard"},
		DisableNoise:      true,
		NoDependencyFlags: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("filtered study has %d cells, want 3", len(res.Cells))
	}
	for _, tr := range res.Traces {
		for _, bt := range tr.Blocks {
			if bt.ILPLimited {
				t.Fatal("dependency flags present despite NoDependencyFlags")
			}
		}
	}
	// With identical traces for metrics 8 and 9, their predictions match.
	type ck struct {
		k Key
		m string
	}
	m8 := map[ck]float64{}
	for _, p := range res.Predictions {
		if p.MetricID == 8 {
			m8[ck{p.Key, p.Machine}] = p.Predicted
		}
	}
	for _, p := range res.Predictions {
		if p.MetricID == 9 && math.Abs(p.Predicted-m8[ck{p.Key, p.Machine}]) > 1e-9 {
			t.Fatal("metric 9 differs from metric 8 with dependency flags ablated")
		}
	}
}

func TestIdleMemoryAblationChangesObservations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a partial study")
	}
	loaded, err := Run(Options{Apps: []string{"overflow2-standard"}, DisableNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	idle, err := Run(Options{Apps: []string{"overflow2-standard"}, DisableNoise: true, IdleMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	key := Key{App: "overflow2", Case: "standard", Procs: 48}
	for _, name := range loaded.TargetNames {
		l, okL := loaded.Observed[key][name]
		i, okI := idle.Observed[key][name]
		if okL != okI {
			t.Fatalf("%s: observation presence differs", name)
		}
		if okL && i >= l {
			t.Errorf("%s: idle-memory run %g not faster than loaded %g", name, i, l)
		}
	}
}
