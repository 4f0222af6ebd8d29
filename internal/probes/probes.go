// Package probes implements the study's synthetic benchmarks, executed
// against the simulated machine so probe rates and observed application
// times are self-consistent (the property the paper's methodology relies
// on).
//
//   - HPL: a DGEMM-like blocked kernel; its flop rate is the
//     per-processor Rmax used by every predictive metric.
//   - STREAM: unit-stride triad from main memory (bytes/second).
//   - GUPS: random updates over a region far exceeding every cache
//     (references/second).
//   - MAPS (the MEMBENCH sweep): STREAM- and GUPS-style kernels at many
//     working-set sizes, yielding bandwidth-versus-size curves that
//     resolve L1/L2/L3/memory (paper Figure 1).
//   - ENHANCED MAPS: the same sweep with a data dependence induced in the
//     inner loop — each element feeds a serial FP chain and misses cannot
//     overlap — measuring the machine's dependency-limited memory rates.
//     The dependence changes how references are priced, not which
//     references run, so it is the same simulated sweep as MAPS, priced
//     with memory-level parallelism capped at simexec.DependentMLP plus one
//     FP latency per element: each (kind, size) point is simulated once
//     per probe suite and yields both curves.
//   - NETBENCH: ping-pong latency and bandwidth plus a reference
//     allreduce, from the interconnect model.
package probes

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/cpusim"
	"hpcmetrics/internal/faults"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/memsim"
	"hpcmetrics/internal/netsim"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/simexec"
)

// Curve is a probe rate as a function of working-set size.
type Curve struct {
	SizesBytes []int64   // ascending
	RefsPerSec []float64 // rate at each size
}

// At returns the rate for a working set, interpolating linearly in
// log(size) and clamping beyond the measured range.
func (c Curve) At(ws int64) float64 {
	n := len(c.SizesBytes)
	if n == 0 {
		return 0
	}
	if ws <= c.SizesBytes[0] {
		return c.RefsPerSec[0]
	}
	if ws >= c.SizesBytes[n-1] {
		return c.RefsPerSec[n-1]
	}
	i := sort.Search(n, func(i int) bool { return c.SizesBytes[i] >= ws })
	lo, hi := i-1, i
	x0, x1 := math.Log(float64(c.SizesBytes[lo])), math.Log(float64(c.SizesBytes[hi]))
	t := (math.Log(float64(ws)) - x0) / (x1 - x0)
	return c.RefsPerSec[lo]*(1-t) + c.RefsPerSec[hi]*t
}

// Validate reports structural problems in the curve.
func (c Curve) Validate() error {
	if len(c.SizesBytes) != len(c.RefsPerSec) {
		return fmt.Errorf("probes: curve has %d sizes, %d rates", len(c.SizesBytes), len(c.RefsPerSec))
	}
	for i := 1; i < len(c.SizesBytes); i++ {
		if c.SizesBytes[i] <= c.SizesBytes[i-1] {
			return fmt.Errorf("probes: curve sizes not ascending at %d", i)
		}
	}
	for i, r := range c.RefsPerSec {
		if r <= 0 {
			return fmt.Errorf("probes: non-positive rate %g at size %d", r, c.SizesBytes[i])
		}
	}
	return nil
}

// NetResults is what NETBENCH reports.
type NetResults struct {
	// LatencySeconds is the zero-byte ping-pong one-way time.
	LatencySeconds float64
	// BandwidthBytesPerSec is the asymptotic large-message rate.
	BandwidthBytesPerSec float64
	// AllReduce8At64 is an 8-byte allreduce across 64 ranks (or the
	// machine's full size if smaller) — the all_reduce score the balanced
	// rating uses.
	AllReduce8At64 float64
}

// Results bundles every probe for one machine.
type Results struct {
	Machine string
	// HPLFlopsPerSec is the per-processor Rmax.
	HPLFlopsPerSec float64
	// StreamBytesPerSec is the STREAM triad bandwidth.
	StreamBytesPerSec float64
	// GUPSRefsPerSec is the random-update rate.
	GUPSRefsPerSec float64
	// MAPSUnit and MAPSRandom are the MEMBENCH bandwidth-vs-size curves.
	MAPSUnit, MAPSRandom Curve
	// DepUnit and DepRandom are the ENHANCED MAPS dependency curves.
	DepUnit, DepRandom Curve
	// Net is the NETBENCH result.
	Net NetResults
	// OverlapFraction is the measured compute/memory overlap capability,
	// a machine property the convolver needs (the real framework derives
	// it from probe combinations).
	OverlapFraction float64
}

// StreamRefsPerSec converts the STREAM bandwidth to references/second.
func (r *Results) StreamRefsPerSec() float64 {
	return r.StreamBytesPerSec / access.ElemBytes
}

// MAPSSizes is the working-set sweep of the MEMBENCH MAPS probe.
var MAPSSizes = []int64{
	8 << 10, 32 << 10, 128 << 10, 512 << 10,
	2 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20, 128 << 20,
}

const (
	streamWS = 64 << 20  // STREAM runs from main memory on every target
	gupsWS   = 256 << 20 // GUPS table exceeds every cache by far
)

// HPL measures the per-processor Rmax: a blocked DGEMM whose working set
// sits in cache and whose FP work has ample instruction-level parallelism.
// Unlike the single-CPU memory probes, HPL is a parallel benchmark — every
// core runs, so its memory traffic sees the loaded node.
func HPL(cfg *machine.Config) (float64, error) {
	cfg = cfg.Loaded()
	work := cpusim.Work{Flops: 64, IntOps: 8, FPChainLen: 2}
	cpu, err := cpusim.Time(cfg, work)
	if err != nil {
		return 0, err
	}
	// Register- and L1-blocked DGEMM: few memory instructions per flop,
	// and the active panels fit the innermost cache.
	const memOps = 12
	spec := access.StreamSpec{
		WorkingSetBytes:  24 << 10,
		Mix:              access.Mix{Unit: 0.9, Short: 0.1},
		ShortStrideElems: 2,
		StoreFraction:    0.25,
		Seed:             0xD6E3,
	}
	memT, err := memsim.SimulateStream(cfg, spec, simexec.SampleSize(spec), memsim.TimingOpts{})
	if err != nil {
		return 0, err
	}
	memCycles := memT.CyclesPerRef() * memOps
	perIter := cpusim.Overlap(cpu.Cycles, memCycles, cfg.MemOverlapFraction)
	return work.Flops / perIter * cfg.ClockGHz * 1e9, nil
}

// STREAM measures unit-stride main-memory bandwidth (triad: two loads and
// one store per element).
func STREAM(cfg *machine.Config) (float64, error) {
	spec := access.StreamSpec{
		WorkingSetBytes: streamWS,
		Mix:             access.Mix{Unit: 1},
		StoreFraction:   1.0 / 3.0,
		Seed:            0x57EA,
	}
	t, err := memsim.SimulateStream(cfg, spec, simexec.SampleSize(spec), memsim.TimingOpts{})
	if err != nil {
		return 0, err
	}
	return t.BytesPerSec, nil
}

// GUPS measures random-access update throughput (references/second).
func GUPS(cfg *machine.Config) (float64, error) {
	spec := access.StreamSpec{
		WorkingSetBytes: gupsWS,
		Mix:             access.Mix{Random: 1},
		StoreFraction:   0.5, // read-modify-write
		Seed:            0x9B5,
	}
	t, err := memsim.SimulateStream(cfg, spec, simexec.SampleSize(spec), memsim.TimingOpts{})
	if err != nil {
		return 0, err
	}
	if t.Seconds == 0 {
		return 0, fmt.Errorf("probes: GUPS measured zero time on %s", cfg.Name)
	}
	return float64(t.Refs) / t.Seconds, nil
}

// MAPSKind selects the access pattern of a MAPS sweep.
type MAPSKind int

const (
	// MAPSUnitStride sweeps the STREAM-style kernel.
	MAPSUnitStride MAPSKind = iota
	// MAPSRandomStride sweeps the GUPS-style kernel.
	MAPSRandomStride
)

// MAPS measures references/second at each working-set size. With dependent
// true it induces a serial data dependence in the inner loop (ENHANCED
// MAPS): misses cannot overlap and every element feeds an FP-latency
// chain. Both variants come from the same simulated sweep; see mapsSweep.
func MAPS(cfg *machine.Config, kind MAPSKind, sizes []int64, dependent bool) (Curve, error) {
	plain, dep, err := mapsSweep(cfg, kind, sizes)
	if err != nil {
		return Curve{}, err
	}
	if dependent {
		return dep, dep.Validate()
	}
	return plain, plain.Validate()
}

// mapsSweep simulates each working-set size of a MAPS sweep once and
// prices it twice: plain, as MAPS, and as ENHANCED MAPS. The dependence
// does not change the reference stream, only its price — memory-level
// parallelism capped at simexec.DependentMLP, plus one FP latency per
// element for the serial chain each element feeds. The curves are not
// validated.
func mapsSweep(cfg *machine.Config, kind MAPSKind, sizes []int64) (plain, dep Curve, err error) {
	var mix access.Mix
	switch kind {
	case MAPSUnitStride:
		mix = access.Mix{Unit: 1}
	case MAPSRandomStride:
		mix = access.Mix{Random: 1}
	default:
		return Curve{}, Curve{}, fmt.Errorf("probes: unknown MAPS kind %d", kind)
	}
	if len(sizes) == 0 {
		sizes = MAPSSizes
	}
	plain.SizesBytes = append([]int64(nil), sizes...)
	dep.SizesBytes = append([]int64(nil), sizes...)
	hz := cfg.ClockGHz * 1e9
	for _, ws := range sizes {
		spec := access.StreamSpec{
			WorkingSetBytes: ws,
			Mix:             mix,
			StoreFraction:   0.25,
			Seed:            0x3A95 ^ uint64(ws),
		}
		sim, err := memsim.Simulate(cfg, spec, simexec.SampleSize(spec))
		if err != nil {
			return Curve{}, Curve{}, err
		}
		t := sim.Timing(memsim.TimingOpts{})
		d := sim.Timing(memsim.TimingOpts{MLPCap: simexec.DependentMLP})
		seconds := t.Cycles / hz
		depSeconds := (d.Cycles + float64(d.Refs)*cfg.FPLatencyCycles) / hz
		if seconds == 0 || depSeconds == 0 {
			return Curve{}, Curve{}, fmt.Errorf("probes: MAPS point %d measured zero time", ws)
		}
		plain.RefsPerSec = append(plain.RefsPerSec, float64(t.Refs)/seconds)
		dep.RefsPerSec = append(dep.RefsPerSec, float64(d.Refs)/depSeconds)
	}
	return plain, dep, nil
}

// Netbench measures ping-pong latency and bandwidth between two ranks and
// a reference 8-byte allreduce.
func Netbench(cfg *machine.Config) (NetResults, error) {
	pair, err := netsim.New(cfg, min(2, cfg.TotalProcs))
	if err != nil {
		return NetResults{}, err
	}
	lat := pair.PointToPoint(0)
	const big = 4 << 20
	bw := float64(big) / (pair.PointToPoint(big) - lat)

	arProcs := 64
	if cfg.TotalProcs < arProcs {
		arProcs = cfg.TotalProcs
	}
	arModel, err := netsim.New(cfg, arProcs)
	if err != nil {
		return NetResults{}, err
	}
	return NetResults{
		LatencySeconds:       lat,
		BandwidthBytesPerSec: bw,
		AllReduce8At64:       arModel.AllReduce(8),
	}, nil
}

// Measure runs the full probe suite on one machine.
func Measure(cfg *machine.Config) (*Results, error) {
	return MeasureContext(context.Background(), cfg)
}

// MeasureContext is Measure with cancellation and tracing: the study
// harness probes machines concurrently, so the context is consulted
// between probes, and the whole suite is one "probe" span when the
// context carries a tracer.
func MeasureContext(ctx context.Context, cfg *machine.Config) (*Results, error) {
	_, span := obs.StartSpan(ctx, "probe")
	defer span.End()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	span.Annotate("machine", cfg.Name)
	res := &Results{Machine: cfg.Name, OverlapFraction: cfg.MemOverlapFraction}
	sweep := func(plain, dep *Curve, kind MAPSKind) func() error {
		return func() (err error) {
			if *plain, *dep, err = mapsSweep(cfg, kind, nil); err != nil {
				return err
			}
			return plain.Validate()
		}
	}

	steps := []struct {
		name string
		run  func() error
	}{
		{"hpl", func() (err error) { res.HPLFlopsPerSec, err = HPL(cfg); return err }},
		{"stream", func() (err error) { res.StreamBytesPerSec, err = STREAM(cfg); return err }},
		{"gups", func() (err error) { res.GUPSRefsPerSec, err = GUPS(cfg); return err }},
		// Each maps step simulates its sweep once and fills both the MAPS
		// and the ENHANCED MAPS curve; the dep steps validate the latter.
		{"maps-unit", sweep(&res.MAPSUnit, &res.DepUnit, MAPSUnitStride)},
		{"maps-random", sweep(&res.MAPSRandom, &res.DepRandom, MAPSRandomStride)},
		{"dep-unit", func() error { return res.DepUnit.Validate() }},
		{"dep-random", func() error { return res.DepRandom.Validate() }},
		{"netbench", func() (err error) { res.Net, err = Netbench(cfg); return err }},
	}
	for _, step := range steps {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("probes: %s: %w", cfg.Name, err)
		}
		if err := faults.Hit(ctx, faults.PointProbeStep, cfg.Name, step.name); err != nil {
			return nil, fmt.Errorf("probes: %s/%s: %w", cfg.Name, step.name, err)
		}
		if err := step.run(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
