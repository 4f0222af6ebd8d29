// Package apps defines the five DoD HPCMP TI-05 application test cases of
// the study as workload skeletons: AVUS (standard and large), HYCOM
// standard, OVERFLOW2 standard, and RFCTH standard.
//
// Each skeleton is a set of basic blocks whose per-iteration work, stride
// mixture, working set, and dependency structure follow the code's
// documented character (see DESIGN.md §2), instantiated for a processor
// count by domain decomposition: per-rank iteration counts shrink as
// cells/P, working sets shrink with the subdomain, and halo message sizes
// shrink as surface-to-volume ratios dictate.
//
// Problem sizes match the paper's Section 2: AVUS standard runs 100
// timesteps over 7M cells, AVUS large 150 steps over 24M cells, HYCOM a
// quarter-degree global ocean, OVERFLOW2 600 steps over 30M points, and
// RFCTH an oblique-impact problem with adaptive mesh refinement. Block
// work constants are calibrated so simulated times-to-solution land in the
// range of the paper's Appendix tables.
package apps

import (
	"fmt"
	"math"
	"sort"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/cpusim"
	"hpcmetrics/internal/netsim"
	"hpcmetrics/internal/workload"
)

// TestCase names an (application, case) pair and carries the processor
// counts the paper ran it at. CPUCounts is a slice rather than a fixed
// array so custom test cases may register any number of counts.
type TestCase struct {
	Name      string
	Case      string
	CPUCounts []int
	build     func(procs int) *workload.App
}

// ID returns the test case's workload.AppID.
func (tc TestCase) ID() string { return workload.AppID(tc.Name, tc.Case) }

// DefaultProcs picks the middle registered CPU count — the paper's usual
// reporting point — whatever the list's length, and errors cleanly when a
// test case registers none.
func (tc TestCase) DefaultProcs() (int, error) {
	if len(tc.CPUCounts) == 0 {
		return 0, fmt.Errorf("apps: %s registers no CPU counts; pass -procs explicitly", tc.ID())
	}
	return tc.CPUCounts[len(tc.CPUCounts)/2], nil
}

// Instance builds the workload for the given processor count (which need
// not be one of the paper's three).
func (tc TestCase) Instance(procs int) (*workload.App, error) {
	if procs < 1 {
		return nil, fmt.Errorf("apps: %s: non-positive procs %d", tc.ID(), procs)
	}
	app := tc.build(procs)
	if err := app.Validate(); err != nil {
		return nil, fmt.Errorf("apps: %s: %w", tc.ID(), err)
	}
	return app, nil
}

// seedOf gives every block a distinct deterministic stream seed.
func seedOf(app, block string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for _, s := range []string{app, "/", block} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return h
}

// surface23 returns the 3D subdomain surface count n^(2/3).
func surface23(n float64) float64 { return math.Pow(n, 2.0/3.0) }

// Registry returns the paper's five test cases in its reporting order.
func Registry() []TestCase {
	return []TestCase{
		{
			Name: "avus", Case: "standard", CPUCounts: []int{32, 64, 128},
			build: func(p int) *workload.App { return buildAVUS("standard", 7_000_000, 100, p) },
		},
		{
			Name: "avus", Case: "large", CPUCounts: []int{128, 256, 384},
			build: func(p int) *workload.App { return buildAVUS("large", 24_000_000, 150, p) },
		},
		{
			Name: "hycom", Case: "standard", CPUCounts: []int{59, 96, 124},
			build: func(p int) *workload.App { return buildHYCOM(p) },
		},
		{
			Name: "overflow2", Case: "standard", CPUCounts: []int{32, 48, 64},
			build: func(p int) *workload.App { return buildOVERFLOW2(p) },
		},
		{
			Name: "rfcth", Case: "standard", CPUCounts: []int{16, 32, 64},
			build: func(p int) *workload.App { return buildRFCTH(p) },
		},
	}
}

// Lookup finds a test case by name and case; an empty case matches the
// first (or only) case registered under the name.
func Lookup(name, caseName string) (TestCase, error) {
	for _, tc := range Registry() {
		if tc.Name == name && (caseName == "" || tc.Case == caseName) {
			return tc, nil
		}
	}
	return TestCase{}, fmt.Errorf("apps: unknown test case %s-%s (have %v)", name, caseName, Names())
}

// Names lists registered test-case identifiers.
func Names() []string {
	var out []string
	for _, tc := range Registry() {
		out = append(out, tc.ID())
	}
	sort.Strings(out)
	return out
}

// buildAVUS models the AFRL unstructured finite-volume CFD code: an
// edge-based flux evaluation with indirect (gather) addressing, an SSOR
// implicit solve whose back-substitution is a memory-carried recurrence,
// a one-equation turbulence model, and gradient reconstruction.
func buildAVUS(caseName string, cells float64, steps float64, procs int) *workload.App {
	n := cells / float64(procs) // cells per rank
	// Implicit sub-iterations per timestep (Newton x SSOR sweeps).
	const subIters = 44
	haloBytes := int64(48 * surface23(n))

	blocks := []workload.Block{
		{
			Name: "flux",
			Work: cpusim.Work{Flops: 200, IntOps: 20, MemOps: 22, Branches: 2, MispredictRate: 0.05, FPChainLen: 4},
			Stream: access.StreamSpec{
				WorkingSetBytes:  int64(320 * n),
				Mix:              access.Mix{Unit: 0.43, Short: 0.15, Random: 0.42},
				ShortStrideElems: 4,
				StoreFraction:    0.25,
				GatherSpread:     4,
				HotFraction:      0.55,
				Seed:             seedOf("avus", "flux"),
			},
			Iters: n * steps * subIters * 0.40,
		},
		{
			Name: "ssor",
			Work: cpusim.Work{Flops: 56, IntOps: 10, MemOps: 14, FPChainLen: 14},
			Stream: access.StreamSpec{
				WorkingSetBytes:  int64(208 * n),
				Mix:              access.Mix{Unit: 0.78, Short: 0.12, Random: 0.10},
				ShortStrideElems: 4,
				StoreFraction:    0.30,
				HotFraction:      0.50,
				Seed:             seedOf("avus", "ssor"),
			},
			Iters:           n * steps * subIters * 0.35,
			DependentMemory: true,
		},
		{
			Name: "grad",
			Work: cpusim.Work{Flops: 60, IntOps: 12, MemOps: 12, FPChainLen: 2},
			Stream: access.StreamSpec{
				WorkingSetBytes:  int64(160 * n),
				Mix:              access.Mix{Unit: 0.45, Short: 0.10, Random: 0.45},
				ShortStrideElems: 2,
				StoreFraction:    0.20,
				GatherSpread:     6,
				HotFraction:      0.45,
				Seed:             seedOf("avus", "grad"),
			},
			Iters: n * steps * subIters * 0.15,
		},
		{
			Name: "turb",
			Work: cpusim.Work{Flops: 44, IntOps: 8, MemOps: 8, Branches: 4, MispredictRate: 0.12, FPChainLen: 3},
			Stream: access.StreamSpec{
				WorkingSetBytes:  int64(96 * n),
				Mix:              access.Mix{Unit: 0.80, Short: 0.10, Random: 0.10},
				ShortStrideElems: 2,
				StoreFraction:    0.25,
				HotFraction:      0.50,
				Seed:             seedOf("avus", "turb"),
			},
			Iters: n * steps * subIters * 0.10,
		},
	}

	comm := []netsim.Event{
		// Halo exchange with up to six neighbours, twice per sub-iteration.
		{Op: netsim.OpPointToPoint, Bytes: haloBytes, Count: steps * subIters * 6},
		// Residual norms and CFL control.
		{Op: netsim.OpAllReduce, Bytes: 8, Count: steps * 6},
		{Op: netsim.OpAllReduce, Bytes: 64, Count: steps},
	}

	return scaleWork(&workload.App{
		Name: "avus", Case: caseName, Procs: procs,
		Blocks: blocks, Comm: comm, RuntimeImbalance: 1.05,
	}, 12)
}

// buildHYCOM models the hybrid-coordinate ocean code: a memory-bound
// baroclinic update over 26 layers, a vertical mixing/column solve that is
// a short-working-set recurrence (the classic "in cache but slow" loop),
// and a latency-sensitive split-explicit barotropic solver issuing
// frequent small allreduces.
func buildHYCOM(procs int) *workload.App {
	const (
		columns  = 4_400_000 // quarter-degree global ocean surface points
		layers   = 26
		steps    = 160
		substeps = 30 // barotropic substeps per baroclinic step
	)
	n := float64(columns) / float64(procs) // columns per rank
	edge := math.Sqrt(n)                   // 2D decomposition boundary length

	blocks := []workload.Block{
		{
			Name: "baroclinic",
			Work: cpusim.Work{Flops: 175, IntOps: 14, MemOps: 20, FPChainLen: 4},
			Stream: access.StreamSpec{
				WorkingSetBytes:  int64(620 * n),
				Mix:              access.Mix{Unit: 0.68, Short: 0.22, Random: 0.10},
				ShortStrideElems: 8, // layer-major strides across 3D arrays
				StoreFraction:    0.28,
				HotFraction:      0.55,
				Seed:             seedOf("hycom", "baroclinic"),
			},
			Iters: n * float64(layers) * steps * 0.9,
		},
		{
			Name: "vertmix",
			Work: cpusim.Work{Flops: 64, IntOps: 8, MemOps: 12, FPChainLen: 16},
			Stream: access.StreamSpec{
				WorkingSetBytes:  384 << 10, // a band of active columns
				Mix:              access.Mix{Unit: 0.50, Short: 0.44, Random: 0.06},
				ShortStrideElems: 8,
				StoreFraction:    0.30,
				HotFraction:      0.40,
				Seed:             seedOf("hycom", "vertmix"),
			},
			Iters:           n * float64(layers) * steps * 1.1,
			DependentMemory: true,
		},
		{
			Name: "barotropic",
			Work: cpusim.Work{Flops: 22, IntOps: 5, MemOps: 6, FPChainLen: 2},
			Stream: access.StreamSpec{
				WorkingSetBytes:  int64(64 * n),
				Mix:              access.Mix{Unit: 0.88, Short: 0.06, Random: 0.06},
				ShortStrideElems: 2,
				StoreFraction:    0.30,
				HotFraction:      0.50,
				Seed:             seedOf("hycom", "barotropic"),
			},
			Iters: n * steps * substeps,
		},
	}

	comm := []netsim.Event{
		{Op: netsim.OpPointToPoint, Bytes: int64(24 * edge * layers), Count: steps * 2 * 4},
		{Op: netsim.OpPointToPoint, Bytes: int64(16 * edge), Count: steps * substeps * 4},
		{Op: netsim.OpAllReduce, Bytes: 8, Count: steps * substeps}, // barotropic CG norms
		{Op: netsim.OpAllReduce, Bytes: 8, Count: steps * 3},
	}

	return scaleWork(&workload.App{
		Name: "hycom", Case: "standard", Procs: procs,
		Blocks: blocks, Comm: comm, RuntimeImbalance: 1.08, // land/ocean mask imbalance
	}, 25)
}

// buildOVERFLOW2 models the overset structured-grid code: a stencil RHS,
// three ADI factor sweeps (the x sweep is the line recurrence; the y and z
// sweeps add plane strides), and overset-boundary interpolation with
// indirect addressing.
func buildOVERFLOW2(procs int) *workload.App {
	const (
		points = 30_000_000
		steps  = 600
	)
	n := float64(points) / float64(procs)
	planeWS := int64(48 * surface23(n)) // active pencils of a sweep
	if planeWS < 64<<10 {
		planeWS = 64 << 10
	}

	adiWork := cpusim.Work{Flops: 70, IntOps: 10, MemOps: 15, FPChainLen: 18}
	blocks := []workload.Block{
		{
			Name: "rhs",
			Work: cpusim.Work{Flops: 270, IntOps: 16, MemOps: 26, FPChainLen: 5},
			Stream: access.StreamSpec{
				WorkingSetBytes:  int64(350 * n),
				Mix:              access.Mix{Unit: 0.81, Short: 0.11, Random: 0.08},
				ShortStrideElems: 4,
				StoreFraction:    0.22,
				HotFraction:      0.60,
				Seed:             seedOf("overflow2", "rhs"),
			},
			Iters: n * steps,
		},
		{
			Name: "adi_x",
			Work: adiWork,
			Stream: access.StreamSpec{
				WorkingSetBytes:  planeWS,
				Mix:              access.Mix{Unit: 0.88, Short: 0.07, Random: 0.05},
				ShortStrideElems: 2,
				StoreFraction:    0.33,
				HotFraction:      0.50,
				Seed:             seedOf("overflow2", "adi_x"),
			},
			Iters:           n * steps * 1.0,
			DependentMemory: true,
		},
		{
			Name: "adi_y",
			Work: adiWork,
			Stream: access.StreamSpec{
				WorkingSetBytes:  planeWS,
				Mix:              access.Mix{Unit: 0.30, Short: 0.64, Random: 0.06},
				ShortStrideElems: 4,
				StoreFraction:    0.33,
				HotFraction:      0.50,
				Seed:             seedOf("overflow2", "adi_y"),
			},
			Iters:           n * steps * 1.0,
			DependentMemory: true,
		},
		{
			Name: "adi_z",
			Work: adiWork,
			Stream: access.StreamSpec{
				WorkingSetBytes:  planeWS,
				Mix:              access.Mix{Unit: 0.22, Short: 0.68, Random: 0.10},
				ShortStrideElems: 8,
				StoreFraction:    0.33,
				HotFraction:      0.50,
				Seed:             seedOf("overflow2", "adi_z"),
			},
			Iters:           n * steps * 1.0,
			DependentMemory: true,
		},
		{
			Name: "interp",
			Work: cpusim.Work{Flops: 28, IntOps: 14, MemOps: 9, Branches: 2, MispredictRate: 0.1, FPChainLen: 2},
			Stream: access.StreamSpec{
				WorkingSetBytes:  int64(120 * n),
				Mix:              access.Mix{Unit: 0.25, Short: 0.05, Random: 0.70},
				ShortStrideElems: 2,
				StoreFraction:    0.20,
				GatherSpread:     6,
				HotFraction:      0.40,
				Seed:             seedOf("overflow2", "interp"),
			},
			Iters: n * steps * 0.06,
		},
	}

	comm := []netsim.Event{
		{Op: netsim.OpPointToPoint, Bytes: int64(64 * surface23(n)), Count: steps * 2 * 6},
		{Op: netsim.OpBcast, Bytes: 4096, Count: steps},
		{Op: netsim.OpAllReduce, Bytes: 8, Count: steps * 2},
	}

	return scaleWork(&workload.App{
		Name: "overflow2", Case: "standard", Procs: procs,
		Blocks: blocks, Comm: comm, RuntimeImbalance: 1.10, // overset grid imbalance
	}, 20)
}

// buildRFCTH models the Sandia shock-physics code with adaptive mesh
// refinement: a branch-heavy hydro update, AMR index arithmetic with
// indirect access, equation-of-state table lookups (random access within a
// cache-resident table), and periodic remesh/refinement passes. AMR gives
// it the study's largest load imbalance.
func buildRFCTH(procs int) *workload.App {
	const (
		cells = 5_200_000 // effective refined cells
		steps = 420
	)
	n := float64(cells) / float64(procs)

	blocks := []workload.Block{
		{
			Name: "hydro",
			Work: cpusim.Work{Flops: 190, IntOps: 18, MemOps: 22, Branches: 6, MispredictRate: 0.10, FPChainLen: 5},
			Stream: access.StreamSpec{
				WorkingSetBytes:  int64(400 * n),
				Mix:              access.Mix{Unit: 0.68, Short: 0.14, Random: 0.18},
				ShortStrideElems: 4,
				StoreFraction:    0.28,
				HotFraction:      0.55,
				Seed:             seedOf("rfcth", "hydro"),
			},
			Iters: n * steps,
		},
		{
			Name: "amr_index",
			Work: cpusim.Work{Flops: 14, IntOps: 34, MemOps: 14, Branches: 8, MispredictRate: 0.18, FPChainLen: 1},
			Stream: access.StreamSpec{
				WorkingSetBytes:  int64(150 * n),
				Mix:              access.Mix{Unit: 0.26, Short: 0.06, Random: 0.68},
				ShortStrideElems: 2,
				StoreFraction:    0.15,
				GatherSpread:     5,
				HotFraction:      0.35,
				Seed:             seedOf("rfcth", "amr_index"),
			},
			Iters: n * steps * 0.5,
		},
		{
			Name: "eos",
			Work: cpusim.Work{Flops: 56, IntOps: 10, MemOps: 10, Branches: 9, MispredictRate: 0.22, FPChainLen: 6},
			Stream: access.StreamSpec{
				WorkingSetBytes:  96 << 10, // material tables stay cache-resident
				Mix:              access.Mix{Unit: 0.45, Short: 0.05, Random: 0.50},
				ShortStrideElems: 2,
				StoreFraction:    0.05,
				HotFraction:      0.45,
				Seed:             seedOf("rfcth", "eos"),
			},
			Iters: n * steps * 0.8,
		},
		{
			Name: "remesh",
			Work: cpusim.Work{Flops: 34, IntOps: 24, MemOps: 16, Branches: 4, MispredictRate: 0.12, FPChainLen: 2},
			Stream: access.StreamSpec{
				WorkingSetBytes:  int64(260 * n),
				Mix:              access.Mix{Unit: 0.52, Short: 0.18, Random: 0.30},
				ShortStrideElems: 4,
				StoreFraction:    0.30,
				HotFraction:      0.45,
				Seed:             seedOf("rfcth", "remesh"),
			},
			Iters: n * steps * 0.25,
		},
	}

	comm := []netsim.Event{
		{Op: netsim.OpPointToPoint, Bytes: 2048, Count: steps * 40}, // many small AMR boundary messages
		{Op: netsim.OpAllReduce, Bytes: 8, Count: steps * 6},
		{Op: netsim.OpAllToAll, Bytes: 512, Count: float64(steps) / 10}, // periodic rebalancing
	}

	return scaleWork(&workload.App{
		Name: "rfcth", Case: "standard", Procs: procs,
		Blocks: blocks, Comm: comm, RuntimeImbalance: 1.18,
	}, 40)
}

// scaleWork multiplies iteration and communication counts by a constant
// calibration factor so simulated times-to-solution land in the range of
// the paper's appendix tables. Being a single multiplier on both compute
// and communication, it cancels exactly in every prediction ratio.
func scaleWork(app *workload.App, k float64) *workload.App {
	for i := range app.Blocks {
		app.Blocks[i].Iters *= k
	}
	for i := range app.Comm {
		app.Comm[i].Count *= k
	}
	return app
}
