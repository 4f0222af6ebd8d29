// Package cpusim models the processor-core time of a basic block.
//
// The model prices one loop iteration of a block by the classic
// three-bound formulation: issue throughput (how many instructions the
// core retires per cycle), floating-point dependency chains (an iteration
// whose FP operations form a serial chain cannot go faster than
// chain-length × FP latency, regardless of functional-unit count), and
// branch misprediction penalties. The block runs at the slowest bound.
//
// The dependency bound is the machine behaviour that the paper's Metric #9
// ("ENHANCED MAPS" plus static dependency analysis) exists to capture:
// ADI/SSOR-style recurrence loops fit in cache yet run far below cache
// bandwidth. cpusim gives the ground-truth executor that behaviour;
// the trace package's analyzer recovers the ILP-limited flag the way the
// paper's static binary analyzer does.
package cpusim

import (
	"fmt"

	"hpcmetrics/internal/machine"
)

// Work is the non-memory work of one basic-block iteration.
type Work struct {
	// Flops is floating-point operations per iteration.
	Flops float64
	// IntOps is non-FP, non-memory instructions per iteration (address
	// arithmetic, induction updates).
	IntOps float64
	// MemOps is memory instructions per iteration; they consume issue
	// slots here, while their data-access time is memsim's concern.
	MemOps float64
	// Branches is branch instructions per iteration.
	Branches float64
	// MispredictRate is the fraction of Branches that mispredict.
	MispredictRate float64
	// FPChainLen is the longest chain of dependent FP operations per
	// iteration; zero means fully parallel FP work.
	FPChainLen float64
}

// Validate reports structural problems in the work description.
func (w Work) Validate() error {
	switch {
	case w.Flops < 0 || w.IntOps < 0 || w.MemOps < 0 || w.Branches < 0:
		return fmt.Errorf("cpusim: negative operation count %+v", w)
	case w.MispredictRate < 0 || w.MispredictRate > 1:
		return fmt.Errorf("cpusim: mispredict rate %g outside [0,1]", w.MispredictRate)
	case w.FPChainLen < 0:
		return fmt.Errorf("cpusim: negative chain length %g", w.FPChainLen)
	case w.FPChainLen > w.Flops:
		return fmt.Errorf("cpusim: chain length %g exceeds flops %g", w.FPChainLen, w.Flops)
	}
	return nil
}

// Result is the priced core time of one iteration.
type Result struct {
	// Cycles is the iteration's core time.
	Cycles float64
	// ThroughputCycles is the issue/functional-unit bound alone.
	ThroughputCycles float64
	// DependencyCycles is the FP dependency-chain bound alone.
	DependencyCycles float64
	// BranchCycles is the misprediction penalty.
	BranchCycles float64
	// ILPLimited reports that the dependency bound dominated the
	// throughput bound — the property the study's static analyzer flags.
	ILPLimited bool
}

// Seconds converts the result to seconds on the machine.
func (r Result) Seconds(cfg *machine.Config) float64 {
	return r.Cycles / (cfg.ClockGHz * 1e9)
}

// Time prices one iteration of the block on the machine.
func Time(cfg *machine.Config, w Work) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	fpBound := w.Flops / cfg.FPPerCycle
	issueBound := (w.Flops + w.IntOps + w.MemOps + w.Branches) / cfg.IssueWidth
	throughput := fpBound
	if issueBound > throughput {
		throughput = issueBound
	}

	dependency := w.FPChainLen * cfg.FPLatencyCycles

	cycles := throughput
	ilpLimited := false
	if dependency > throughput {
		cycles = dependency
		ilpLimited = true
	}

	branch := w.Branches * w.MispredictRate * cfg.BranchMispredictPenaltyCycles
	cycles += branch

	return Result{
		Cycles:           cycles,
		ThroughputCycles: throughput,
		DependencyCycles: dependency,
		BranchCycles:     branch,
		ILPLimited:       ilpLimited,
	}, nil
}

// Overlap merges a block's compute and memory time, given in the same
// unit (cycles or seconds): the longer of a and b always shows, and
// fraction of the shorter hides beneath it according to the core's
// ability to overlap independent work. The ground-truth executor, the
// probes and the convolver all price a block by this one rule.
func Overlap(a, b, fraction float64) float64 {
	longer, shorter := a, b
	if b > a {
		longer, shorter = b, a
	}
	return longer + (1-fraction)*shorter
}
