// Package convolve reimplements the MetaSim Convolver, the paper's core
// prediction machinery.
//
// The convolver combines an application trace (per-basic-block operation
// counts, stride-classified memory references, working sets, ILP flags,
// and an MPI event profile — all gathered once on the base system) with a
// target machine's probe results (HPL, STREAM, GUPS, MAPS curves,
// ENHANCED MAPS curves, NETBENCH). For every basic block it divides
// operation counts by the corresponding operation rates, combines the
// per-type times with cpusim.Overlap (the executor's own overlap rule),
// and sums over blocks; a network
// term prices the traced MPI events from NETBENCH's latency and bandwidth.
//
// Which rates the convolver may use is the study's independent variable:
// Options selects the memory-rate resolution (none / STREAM / STREAM+GUPS
// / MAPS / MAPS+dependency curves) and whether the network term is
// included, which realizes the paper's predictive Metrics #4 through #9.
//
// Deliberately, the convolver sees nothing else: no cache geometry, no
// contention model, no load imbalance. Its error against the ground-truth
// executor is the honest gap the paper measures.
package convolve

import (
	"context"
	"fmt"
	"math"

	"hpcmetrics/internal/cpusim"
	"hpcmetrics/internal/netsim"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/probes"
	"hpcmetrics/internal/trace"
)

// MemoryModel selects the memory-rate resolution available to the
// convolver.
type MemoryModel int

const (
	// MemNone ignores memory operations (Metric #4).
	MemNone MemoryModel = iota
	// MemStream prices every reference at the STREAM rate (Metric #5).
	MemStream
	// MemStreamGups prices strided references at STREAM and random
	// references at GUPS (Metric #6).
	MemStreamGups
	// MemMAPS prices references from the MAPS curves at the block's
	// working-set size (Metrics #7 and #8).
	MemMAPS
	// MemMAPSDependency is MemMAPS with ENHANCED MAPS curves for blocks
	// the static analyzer flagged ILP-limited (Metric #9).
	MemMAPSDependency
)

// String names the memory model.
func (m MemoryModel) String() string {
	switch m {
	case MemNone:
		return "none"
	case MemStream:
		return "stream"
	case MemStreamGups:
		return "stream+gups"
	case MemMAPS:
		return "maps"
	case MemMAPSDependency:
		return "maps+dep"
	default:
		return fmt.Sprintf("memorymodel(%d)", int(m))
	}
}

// Options selects the transfer function's notional terms.
type Options struct {
	Memory  MemoryModel
	Network bool
}

// BlockPrediction is the convolver's time for one basic block.
type BlockPrediction struct {
	Name       string
	FPSeconds  float64
	MemSeconds float64
	Seconds    float64
}

// Prediction is the convolver's absolute time estimate for one
// (application, machine) pair. The study uses ratios of Predictions
// between target and base machine (Equation 1), so systematic convolver
// bias cancels — which is why Metric #4 reduces exactly to Metric #1.
type Prediction struct {
	App            string
	Case           string
	Procs          int
	Machine        string
	Options        Options
	ComputeSeconds float64
	CommSeconds    float64
	Seconds        float64
	Blocks         []BlockPrediction
}

// Predict convolves the trace with the probe results.
func Predict(tr *trace.Trace, pr *probes.Results, opts Options) (*Prediction, error) {
	return PredictContext(context.Background(), tr, pr, opts)
}

// PredictContext is Predict with tracing: one "convolve" span per call
// when the context carries a tracer, annotated with the (app, machine)
// pair and the transfer-function options.
func PredictContext(ctx context.Context, tr *trace.Trace, pr *probes.Results, opts Options) (*Prediction, error) {
	_, span := obs.StartSpan(ctx, "convolve")
	defer span.End()
	if span != nil && tr != nil && pr != nil {
		span.Annotate("app", tr.ID())
		span.Annotate("machine", pr.Machine)
		span.Annotate("memory", opts.Memory.String())
	}
	if tr == nil || pr == nil {
		return nil, fmt.Errorf("convolve: nil trace or probe results")
	}
	if pr.HPLFlopsPerSec <= 0 {
		return nil, fmt.Errorf("convolve: missing HPL rate for %s", pr.Machine)
	}
	out := &Prediction{
		App: tr.App, Case: tr.Case, Procs: tr.Procs,
		Machine: pr.Machine, Options: opts,
	}
	for i := range tr.Blocks {
		bp, err := predictBlock(&tr.Blocks[i], pr, opts)
		if err != nil {
			return nil, err
		}
		out.Blocks = append(out.Blocks, bp)
		out.ComputeSeconds += bp.Seconds
	}
	if opts.Network {
		out.CommSeconds = commTime(tr.Comm, pr.Net, tr.Procs)
	}
	out.Seconds = out.ComputeSeconds + out.CommSeconds
	return out, nil
}

func predictBlock(bt *trace.BlockTrace, pr *probes.Results, opts Options) (BlockPrediction, error) {
	fpSeconds := bt.FlopsPerIter * bt.Iters / pr.HPLFlopsPerSec

	refs := bt.MemOpsPerIter * bt.Iters
	stridedRefs := refs * (bt.Mix.Unit + bt.Mix.Short)
	randomRefs := refs * bt.Mix.Random

	var memSeconds float64
	switch opts.Memory {
	case MemNone:
		memSeconds = 0
	case MemStream:
		rate := pr.StreamRefsPerSec()
		if rate <= 0 {
			return BlockPrediction{}, fmt.Errorf("convolve: missing STREAM rate for %s", pr.Machine)
		}
		memSeconds = refs / rate
	case MemStreamGups:
		sRate, rRate := pr.StreamRefsPerSec(), pr.GUPSRefsPerSec
		if sRate <= 0 || rRate <= 0 {
			return BlockPrediction{}, fmt.Errorf("convolve: missing STREAM/GUPS rates for %s", pr.Machine)
		}
		memSeconds = stridedRefs/sRate + randomRefs/rRate
	case MemMAPS, MemMAPSDependency:
		unitCurve, randCurve := pr.MAPSUnit, pr.MAPSRandom
		if opts.Memory == MemMAPSDependency && bt.ILPLimited {
			unitCurve, randCurve = pr.DepUnit, pr.DepRandom
		}
		sRate, rRate := unitCurve.At(bt.WorkingSetBytes), randCurve.At(bt.WorkingSetBytes)
		if sRate <= 0 || rRate <= 0 {
			return BlockPrediction{}, fmt.Errorf("convolve: missing MAPS curves for %s", pr.Machine)
		}
		memSeconds = stridedRefs/sRate + randomRefs/rRate
	default:
		return BlockPrediction{}, fmt.Errorf("convolve: unknown memory model %d", opts.Memory)
	}

	seconds := cpusim.Overlap(fpSeconds, memSeconds, pr.OverlapFraction)
	return BlockPrediction{
		Name:       bt.Name,
		FPSeconds:  fpSeconds,
		MemSeconds: memSeconds,
		Seconds:    seconds,
	}, nil
}

// commTime prices the traced MPI events with NETBENCH's two parameters —
// a deliberately coarse model (no overhead term, no NIC contention, ideal
// collectives), because that is all the probe reports.
func commTime(events []netsim.Event, net probes.NetResults, procs int) float64 {
	if procs <= 1 {
		return 0
	}
	lat, bw := net.LatencySeconds, net.BandwidthBytesPerSec
	stages := math.Ceil(math.Log2(float64(procs)))
	var total float64
	for _, ev := range events {
		bytes := float64(ev.Bytes)
		var per float64
		switch ev.Op {
		case netsim.OpPointToPoint:
			per = lat + bytes/bw
		case netsim.OpAllReduce, netsim.OpBcast:
			per = stages * (lat + bytes/bw)
		case netsim.OpBarrier:
			per = stages * (lat + 8/bw)
		case netsim.OpAllToAll:
			per = lat + float64(procs-1)*bytes/bw
		}
		total += ev.Count * per
	}
	return total
}
