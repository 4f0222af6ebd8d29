// Package trace observes applications the way the paper's tool chain does.
//
// It plays three roles:
//
//   - MetaSim Tracer analog: for each basic block it regenerates the
//     block's address stream and classifies it with the stride detector
//     (stride-1 / short / random) and working-set estimator from
//     internal/access. Classification is honest — the tracer derives the
//     stride mixture and footprint from the observed stream, never from
//     the workload's own parameters, so detector error (gathers binned as
//     short strides, footprint estimation noise) propagates into the
//     predictions exactly as it does with the real tracer.
//
//   - MPIDTRACE analog: it copies the application's MPI event profile as
//     exact counts, which is what event tracing delivers.
//
//   - Static dependency analyzer analog (the paper credits a binary
//     analyzer for finding ILP-limited basic blocks): it compares the
//     block's dependency-chain bound against its throughput bound on the
//     base system and flags blocks where the chain dominates.
//
// Tracing happens once per application instance on the base system, as in
// the paper; the resulting Trace feeds the convolver for every target.
package trace

import (
	"context"
	"fmt"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/cpusim"
	"hpcmetrics/internal/faults"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/netsim"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/workload"
)

// BlockTrace is the tracer's record of one basic block.
type BlockTrace struct {
	Name string
	// Iters is the instrumented iteration count (exact, as counters are).
	Iters float64
	// FlopsPerIter and MemOpsPerIter come from instruction counting
	// (exact).
	FlopsPerIter  float64
	MemOpsPerIter float64
	// Mix is the detector-derived stride classification.
	Mix access.Mix
	// WorkingSetBytes is the detector-derived footprint estimate.
	WorkingSetBytes int64
	// ILPLimited is the static analyzer's verdict: the block's FP
	// dependency chain, not issue throughput, bounds it on the base
	// system.
	ILPLimited bool
}

// Trace is a complete application signature gathered on the base system.
type Trace struct {
	App        string
	Case       string
	Procs      int
	BaseSystem string
	Blocks     []BlockTrace
	// Comm is the MPIDTRACE event profile (per rank, whole run).
	Comm []netsim.Event
}

// ID returns the traced application's workload.AppID.
func (t *Trace) ID() string { return workload.AppID(t.App, t.Case) }

// TotalFlops returns the traced floating-point operation count per rank.
func (t *Trace) TotalFlops() float64 {
	var sum float64
	for i := range t.Blocks {
		sum += t.Blocks[i].FlopsPerIter * t.Blocks[i].Iters
	}
	return sum
}

// TotalMemOps returns the traced memory operation count per rank.
func (t *Trace) TotalMemOps() float64 {
	var sum float64
	for i := range t.Blocks {
		sum += t.Blocks[i].MemOpsPerIter * t.Blocks[i].Iters
	}
	return sum
}

// tracerSampleCeiling bounds how many references the tracer replays per
// block; tracerGranularity is the coarse footprint-counting grain that
// keeps long traces cheap (see access.NewDetectorGranularity).
const (
	tracerSampleFloor   = 100_000
	tracerSampleCeiling = 4_000_000
	tracerGranularity   = 512
)

// sampleSize covers the working set a few times so the footprint estimate
// saturates, within the ceiling.
func sampleSize(ws int64) int {
	n := 4 * ws / access.ElemBytes
	switch {
	case n < tracerSampleFloor:
		return tracerSampleFloor
	case n > tracerSampleCeiling:
		return tracerSampleCeiling
	default:
		return int(n)
	}
}

// Collect traces the application on the base system.
func Collect(base *machine.Config, app *workload.App) (*Trace, error) {
	return CollectContext(context.Background(), base, app)
}

// CollectContext is Collect with cancellation and tracing: the context is
// consulted between basic blocks — the unit of replay cost — and the
// whole collection is one "trace" span when the context carries a tracer.
func CollectContext(ctx context.Context, base *machine.Config, app *workload.App) (*Trace, error) {
	_, span := obs.StartSpan(ctx, "trace")
	defer span.End()
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	span.Annotate("app", app.ID())

	tr := &Trace{
		App: app.Name, Case: app.Case, Procs: app.Procs,
		BaseSystem: base.Name,
		Comm:       append([]netsim.Event(nil), app.Comm...),
	}

	// The fault identity is ("app-case@procs", block), built only when
	// an injector is listening, as in simexec.
	var faultID string
	if faults.From(ctx) != nil {
		faultID = workload.CellID(app.ID(), app.Procs)
	}
	for i := range app.Blocks {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("trace: %s: %w", app.ID(), err)
		}
		if err := faults.Hit(ctx, faults.PointTraceBlock, faultID, app.Blocks[i].Name); err != nil {
			return nil, fmt.Errorf("trace: %s/%s: %w", app.ID(), app.Blocks[i].Name, err)
		}
		bt, err := traceBlock(base, &app.Blocks[i])
		if err != nil {
			return nil, fmt.Errorf("trace: %s/%s: %w", app.ID(), app.Blocks[i].Name, err)
		}
		tr.Blocks = append(tr.Blocks, bt)
	}
	return tr, nil
}

func traceBlock(base *machine.Config, blk *workload.Block) (BlockTrace, error) {
	stream, err := access.NewStream(blk.Stream)
	if err != nil {
		return BlockTrace{}, err
	}
	det := access.NewDetectorGranularity(0, tracerGranularity)
	n := sampleSize(blk.Stream.WorkingSetBytes)
	for i := 0; i < n; i++ {
		det.Observe(stream.Next())
	}
	sum := det.Summary()

	// Static analysis on the base system: a block is ILP-limited when its
	// FP dependency chain clearly dominates the full-instruction issue
	// bound (the analyzer sees all instructions in the binary), or when
	// its loads feed the chain — a memory-carried recurrence, which the
	// analyzer recognizes from the dataflow.
	cpu, err := cpusim.Time(base, blk.Work)
	if err != nil {
		return BlockTrace{}, err
	}
	ilp := cpu.DependencyCycles > ilpMargin*cpu.ThroughputCycles

	return BlockTrace{
		Name:            blk.Name,
		Iters:           blk.Iters,
		FlopsPerIter:    blk.Work.Flops,
		MemOpsPerIter:   blk.Work.MemOps,
		Mix:             sum.Mix(),
		WorkingSetBytes: sum.WorkingSetBytes,
		ILPLimited:      ilp || blk.DependentMemory,
	}, nil
}

// ilpMargin is how decisively the dependency bound must beat the issue
// bound before the analyzer flags a block; small excesses vanish in
// scheduling slack.
const ilpMargin = 1.8
