// Package workload defines the shape of an application as the study sees
// it: a set of basic blocks, each with per-iteration processor work and a
// memory-reference pattern, plus a per-rank MPI event profile.
//
// An App is fully instantiated for a (test case, processor count) pair —
// iteration counts and working sets already reflect the domain
// decomposition. The apps package builds these; the simexec package
// executes them at full fidelity ("the real machine"); the trace package
// observes them the way MetaSim Tracer and MPIDTRACE observe real codes.
package workload

import (
	"fmt"
	"strconv"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/cpusim"
	"hpcmetrics/internal/netsim"
)

// Block is one basic block (loop nest) of an application.
type Block struct {
	// Name identifies the block in traces and reports.
	Name string
	// Work is the processor work of one iteration. Work.MemOps must equal
	// the number of references the Stream contributes per iteration.
	Work cpusim.Work
	// Stream describes the block's memory-reference pattern; its
	// WorkingSetBytes reflects the per-rank footprint after decomposition.
	Stream access.StreamSpec
	// Iters is the number of iterations one rank executes over the whole
	// run (all timesteps).
	Iters float64
	// DependentMemory marks blocks whose loads feed a serial dependence
	// chain (recurrences through memory): the core cannot overlap their
	// cache misses, so the executor caps memory-level parallelism.
	DependentMemory bool
}

// Validate reports structural problems in the block.
func (b *Block) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("workload: unnamed block")
	}
	if err := b.Work.Validate(); err != nil {
		return fmt.Errorf("workload block %s: %w", b.Name, err)
	}
	if err := b.Stream.Validate(); err != nil {
		return fmt.Errorf("workload block %s: %w", b.Name, err)
	}
	if b.Work.MemOps <= 0 {
		return fmt.Errorf("workload block %s: blocks must reference memory (MemOps=%g)", b.Name, b.Work.MemOps)
	}
	if b.Iters <= 0 {
		return fmt.Errorf("workload block %s: non-positive iterations %g", b.Name, b.Iters)
	}
	return nil
}

// FlopCount returns total floating-point operations for the rank.
func (b *Block) FlopCount() float64 { return b.Work.Flops * b.Iters }

// App is an application instantiated at a processor count.
type App struct {
	// Name is the application ("avus", "hycom", ...).
	Name string
	// Case is the test case ("standard", "large").
	Case string
	// Procs is the MPI rank count the instance was decomposed for.
	Procs int
	// Blocks are the basic blocks one rank executes.
	Blocks []Block
	// Comm is the per-rank MPI event profile for the whole run.
	Comm []netsim.Event
	// RuntimeImbalance inflates the observed (ground-truth) runtime for
	// load imbalance the tracer cannot see (AMR, irregular partitions).
	// 1.0 means perfectly balanced. Predictors never see this field;
	// that is deliberate — it is a real, untraceable error source.
	RuntimeImbalance float64
}

// AppID names an (application, test case) pair: "name-case", as in
// "avus-standard". Reports, traces and the study's tables all use it.
func AppID(name, testCase string) string { return name + "-" + testCase }

// CellID names an application run at a processor count:
// "name-case@procs", as in "avus-standard@64", built from an AppID. Its
// bytes are the input of the observation-noise hash, the checkpoint
// journal's record keys, the fault-injection identities and the
// Predictor's cache keys, so the format must never change.
func CellID(appID string, procs int) string { return appID + "@" + strconv.Itoa(procs) }

// ID returns the app's AppID.
func (a *App) ID() string { return AppID(a.Name, a.Case) }

// Validate reports structural problems in the app.
func (a *App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("workload: unnamed app")
	}
	if a.Procs < 1 {
		return fmt.Errorf("workload %s: non-positive procs %d", a.ID(), a.Procs)
	}
	if len(a.Blocks) == 0 {
		return fmt.Errorf("workload %s: no blocks", a.ID())
	}
	seen := map[string]bool{}
	for i := range a.Blocks {
		if err := a.Blocks[i].Validate(); err != nil {
			return err
		}
		if seen[a.Blocks[i].Name] {
			return fmt.Errorf("workload %s: duplicate block %s", a.ID(), a.Blocks[i].Name)
		}
		seen[a.Blocks[i].Name] = true
	}
	for _, ev := range a.Comm {
		if ev.Count < 0 || ev.Bytes < 0 {
			return fmt.Errorf("workload %s: negative comm event %+v", a.ID(), ev)
		}
	}
	if a.RuntimeImbalance < 1 {
		return fmt.Errorf("workload %s: imbalance %g below 1", a.ID(), a.RuntimeImbalance)
	}
	return nil
}

// TotalFlops returns the rank's floating-point operation count.
func (a *App) TotalFlops() float64 {
	var sum float64
	for i := range a.Blocks {
		sum += a.Blocks[i].FlopCount()
	}
	return sum
}
