// Package hpcmetrics reproduces the SC'05 study "How Well Can Simple
// Metrics Represent the Performance of HPC Applications?" (Carrington,
// Laurenzano, Snavely, Campbell, Davis) as a runnable system.
//
// The library provides, end to end:
//
//   - machine models of the study's eleven HPC systems (and a way to
//     define new ones), with cache-hierarchy, processor-core, and
//     interconnect simulators standing in for the hardware;
//   - the synthetic probes — HPL, STREAM, GUPS, the MAPS memory sweep,
//     ENHANCED MAPS, and NETBENCH — executed against those machine models;
//   - the five TI-05 application skeletons (AVUS standard/large, HYCOM,
//     OVERFLOW2, RFCTH) and a ground-truth executor that produces
//     observed times-to-solution;
//   - the tracing tool chain (stride-classifying tracer, MPI event
//     profile, static dependency analyzer) and the MetaSim-style
//     convolver — the paper's core contribution;
//   - the nine prediction metrics of the paper's Table 3, the IDC-style
//     balanced rating, and the full study harness that regenerates every
//     table and figure of the evaluation section.
//
// Quick start:
//
//	cfg := hpcmetrics.Machine(hpcmetrics.ARLOpteron)
//	pr, _ := hpcmetrics.MeasureProbes(cfg)
//	fmt.Printf("STREAM: %.2f GB/s\n", pr.StreamBytesPerSec/1e9)
//
//	res, _ := hpcmetrics.RunStudy(os.Stderr)
//	fmt.Print(hpcmetrics.Table4(res))
//
// The heavy lifting lives in the internal packages (machine, memsim,
// cpusim, netsim, access, trace, apps, simexec, probes, convolve,
// metrics, stats, study, report); this package re-exports the surface a
// downstream user needs.
package hpcmetrics

import (
	"io"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/convolve"
	"hpcmetrics/internal/faults"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/metrics"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/predictor"
	"hpcmetrics/internal/probes"
	"hpcmetrics/internal/report"
	"hpcmetrics/internal/simexec"
	"hpcmetrics/internal/study"
	"hpcmetrics/internal/trace"
	"hpcmetrics/internal/workload"
)

// Machine configuration types and the study presets.
type (
	// MachineConfig describes one HPC system.
	MachineConfig = machine.Config
	// CacheLevel describes one level of a machine's cache hierarchy.
	CacheLevel = machine.CacheLevel
	// Network describes a machine's interconnect.
	Network = machine.Network
)

// Preset system names (paper Tables 1, 2, and 5).
const (
	ERDCOrigin3800 = machine.ERDCOrigin3800
	MHPCCPower3    = machine.MHPCCPower3
	NAVOPower3     = machine.NAVOPower3
	ASCSC45        = machine.ASCSC45
	MHPCC690       = machine.MHPCC690
	ARL690         = machine.ARL690
	ARLXeon        = machine.ARLXeon
	ARLAltix       = machine.ARLAltix
	NAVO655        = machine.NAVO655
	ARLOpteron     = machine.ARLOpteron
	BaseSystem     = machine.BaseSystemName
)

// Machine returns a fresh copy of a preset system; it panics on unknown
// names (use machine.Preset via LookupMachine for error handling).
func Machine(name string) *MachineConfig { return machine.MustPreset(name) }

// LookupMachine returns a preset system or an error.
func LookupMachine(name string) (*MachineConfig, error) { return machine.Preset(name) }

// MachineNames lists all preset systems.
func MachineNames() []string { return machine.Names() }

// StudyTargets returns the ten prediction-target systems in paper order.
func StudyTargets() []*MachineConfig { return machine.StudyTargets() }

// BaseMachine returns the NAVO p690 base system.
func BaseMachine() *MachineConfig { return machine.Base() }

// Probe results and the probe suite.
type (
	// ProbeResults bundles every synthetic benchmark result for a machine.
	ProbeResults = probes.Results
	// ProbeCurve is a rate-versus-working-set curve (MAPS).
	ProbeCurve = probes.Curve
)

// MeasureProbes runs HPL, STREAM, GUPS, MAPS, ENHANCED MAPS, and NETBENCH
// on the machine.
func MeasureProbes(cfg *MachineConfig) (*ProbeResults, error) { return probes.Measure(cfg) }

// Applications and execution.
type (
	// App is an application instantiated at a processor count.
	App = workload.App
	// AppTestCase is one of the study's five test cases.
	AppTestCase = apps.TestCase
	// RunResult is a ground-truth execution result.
	RunResult = simexec.Result
)

// TestCases returns the five TI-05 test cases in the paper's order.
func TestCases() []AppTestCase { return apps.Registry() }

// LookupTestCase finds a test case by name ("avus", "hycom", ...) and case
// ("standard", "large"; empty matches the first).
func LookupTestCase(name, caseName string) (AppTestCase, error) { return apps.Lookup(name, caseName) }

// ErrJobTooLarge reports that an application instance needs more
// processors than the target machine has. The study records such cells
// as missing — test with errors.Is to distinguish "no observation" from
// a real execution failure.
var ErrJobTooLarge = simexec.ErrTooLarge

// Execute runs an application on a machine at full model fidelity,
// producing the observed time-to-solution.
func Execute(cfg *MachineConfig, app *App) (*RunResult, error) { return simexec.Execute(cfg, app) }

// Tracing and prediction.
type (
	// Trace is an application signature gathered on a base system.
	Trace = trace.Trace
	// Metric is one of the paper's nine prediction metrics.
	Metric = metrics.Metric
	// MetricContext carries what a prediction needs.
	MetricContext = metrics.Context
	// ConvolveOptions selects the convolver's transfer-function terms.
	ConvolveOptions = convolve.Options
	// Prediction is a convolver time estimate.
	Prediction = convolve.Prediction
)

// CollectTrace traces an application on the base system (MetaSim Tracer,
// MPIDTRACE, and static dependency analysis analogs).
func CollectTrace(base *MachineConfig, app *App) (*Trace, error) { return trace.Collect(base, app) }

// Metrics returns the nine metrics of the paper's Table 3.
func Metrics() []Metric { return metrics.All() }

// MetricByID returns one metric by its Table 3 number (1-9).
func MetricByID(id int) (Metric, error) { return metrics.ByID(id) }

// Convolve predicts an absolute runtime from a trace and probe results
// (the MetaSim Convolver analog).
func Convolve(tr *Trace, pr *ProbeResults, opts ConvolveOptions) (*Prediction, error) {
	return convolve.Predict(tr, pr, opts)
}

// SignedError is the paper's Equation 2: percent deviation of a prediction
// from the actual runtime.
func SignedError(predicted, actual float64) float64 { return metrics.SignedError(predicted, actual) }

// The full study.
type (
	// StudyResults holds everything the full reproduction produced.
	StudyResults = study.Results
	// StudyKey identifies one (application, case, CPU count) cell.
	StudyKey = study.Key
	// StudyOptions configures a study run (slices, workers, ablations,
	// observability).
	StudyOptions = study.Options
	// StudySkip records why one (cell, system) observation is missing.
	StudySkip = study.Skip
	// ReportTable is a rendered table (String() for terminals, CSV()).
	ReportTable = report.Table
)

// Observability: the span tracer, metrics registry, and run manifest
// that make a study run auditable (see internal/obs).
type (
	// Obs bundles a tracer and a metrics registry for a run.
	Obs = obs.Obs
	// SpanRecord is one finished span as exported to JSONL.
	SpanRecord = obs.SpanRecord
	// PhaseStat is one row of the flame-style per-phase summary.
	PhaseStat = obs.PhaseStat
	// RunManifest attributes a run: toolchain, host, seed, options.
	RunManifest = obs.Manifest
)

// NewObs returns an observability bundle to pass in StudyOptions.Obs.
func NewObs() *Obs { return obs.New() }

// Serving: the memoizing, coalescing Predictor that cmd/predict and the
// predictd server ask (see internal/predictor).
type (
	// Predictor answers prediction requests with exact-hit memoization
	// and request coalescing. The study runs its cells and observations
	// through the same layers under a noisy World; a NewPredictor here
	// gets the zero World, so its answers equal a noise-ablated study's
	// (metricstudy -ablate noise) and what cmd/predict prints.
	Predictor = predictor.Predictor
	// PredictorConfig tunes a Predictor.
	PredictorConfig = predictor.Config
	// PredictRequest names one prediction cell.
	PredictRequest = predictor.Request
	// PredictResult is one answered prediction.
	PredictResult = predictor.Result
	// RankRequest asks for machines ordered fastest-first for one cell.
	RankRequest = predictor.RankRequest
	// RankResult is a rank answer, fastest machine first.
	RankResult = predictor.Ranking
	// PredictorCacheStat is one memoization layer's live view: keyspace
	// size plus hit/miss/coalesce traffic (Predictor.CacheStats).
	PredictorCacheStat = predictor.CacheStat
)

// ErrBadPredictRequest marks request-validation failures from the
// Predictor — unknown application, case, machine, or metric, or an
// unusable processor count. Test with errors.Is.
var ErrBadPredictRequest = predictor.ErrBadRequest

// NewPredictor returns a Predictor with empty caches, anchored to the
// study's base system.
func NewPredictor(cfg PredictorConfig) *Predictor { return predictor.New(cfg) }

// Robustness: the deterministic fault injector and the retry/checkpoint
// controls that let a study survive — and be tested under — transient
// failures, stalls, and crashes (see internal/faults, internal/retry,
// and StudyOptions.CellTimeout/MaxAttempts/CheckpointPath/Resume).
type (
	// FaultInjector arms deterministic faults at the pipeline's named
	// injection points; pass it in StudyOptions.Faults.
	FaultInjector = faults.Injector
	// FaultRule arms one fault kind at one injection point.
	FaultRule = faults.Rule
	// FaultKind is a class of injected fault.
	FaultKind = faults.Kind
)

// Fault kinds: a healing failure, a context-aware latency stall, and a
// failure no retry fixes.
const (
	FaultTransient = faults.Transient
	FaultStall     = faults.Stall
	FaultPermanent = faults.Permanent
)

// Injected-fault sentinels: every injected failure wraps one of these,
// so errors.Is can tell chaos from a real model error.
var (
	ErrInjectedTransient = faults.ErrTransient
	ErrInjectedPermanent = faults.ErrPermanent
)

// NewFaultInjector builds a fault injector from a jitter seed and a rule
// set; an empty rule set never fires.
func NewFaultInjector(seed uint64, rules ...FaultRule) *FaultInjector {
	return faults.New(seed, rules...)
}

// ParseFaultRules parses the -faults CLI grammar: comma-separated
// "kind:point:rate[:burst[:stall[:match]]]" rules.
func ParseFaultRules(spec string) ([]FaultRule, error) { return faults.ParseRules(spec) }

// PhaseTable renders the per-phase self/total time table of a traced run.
func PhaseTable(stats []PhaseStat) *ReportTable { return report.PhaseTable(stats) }

// SkipTable renders the appendix-style skipped-observation report with
// reasons (job-too-large vs. error vs. timeout) and attempt counts.
func SkipTable(res *StudyResults) *ReportTable { return report.SkipTable(res) }

// RunStudy executes the full reproduction: probes all systems, observes
// all 150 cells, traces on the base system, applies the nine metrics and
// the balanced rating. Progress lines go to w when non-nil. Expect on the
// order of a minute of CPU time.
func RunStudy(w io.Writer) (*StudyResults, error) {
	return study.Run(study.Options{Progress: w})
}

// RunStudyWithOptions executes the study with full control over slices,
// worker count, ablations, and observability.
func RunStudyWithOptions(opts StudyOptions) (*StudyResults, error) {
	return study.Run(opts)
}

// SharedStudy runs the study once per process and caches the result.
func SharedStudy() (*StudyResults, error) { return study.Shared() }

// Table4 renders the paper's headline error table.
func Table4(res *StudyResults) *ReportTable { return report.Table4(res) }

// Table5 renders the per-system error table.
func Table5(res *StudyResults) *ReportTable { return report.Table5(res) }

// FigureTable renders one application's error assessment (Figures 3-7).
func FigureTable(res *StudyResults, appID string) (*ReportTable, error) {
	fs, err := report.Figure(res, appID)
	if err != nil {
		return nil, err
	}
	return fs.Table(), nil
}

// ObservedTable renders an application's observed times (Appendix 6-10).
func ObservedTable(res *StudyResults, appID string) (*ReportTable, error) {
	return report.ObservedTable(res, appID)
}

// BalancedTable renders the balanced-rating side experiment.
func BalancedTable(res *StudyResults) *ReportTable { return report.BalancedTable(res) }

// ProbeTable summarizes the probe suite across all study machines.
func ProbeTable(res *StudyResults) *ReportTable { return report.ProbeTable(res) }

// Ranking orders the target systems best-first by observed application
// performance relative to the base system.
func Ranking(res *StudyResults) []string { return report.Ranking(res) }

// CorrelationTable renders prediction-vs-observed correlation per metric
// (Pearson and Spearman), the "correlation of each estimator to true
// performance" framing of the paper's introduction.
func CorrelationTable(res *StudyResults) (*ReportTable, error) {
	return report.CorrelationTable(res)
}
