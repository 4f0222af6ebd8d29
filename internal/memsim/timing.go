package memsim

import (
	"hpcmetrics/internal/access"
	"hpcmetrics/internal/machine"
)

// TimingOpts adjusts how raw counters are priced.
type TimingOpts struct {
	// MLPCap, when positive, caps the memory-level parallelism used to
	// overlap uncovered miss latency. Dependent access chains (pointer
	// chasing, recurrences through memory) cannot issue misses in
	// parallel; the ENHANCED MAPS probe and the ground-truth executor use
	// this to price such blocks. Zero means "machine limit".
	MLPCap float64
}

// Timing is the priced outcome of a simulated reference stream.
type Timing struct {
	Refs    int64
	Cycles  float64
	Seconds float64
	// BytesFromMemory is demand + write-back traffic at the memory bus.
	BytesFromMemory int64
	// BytesPerSec is the achieved data rate: useful payload
	// (Refs × element size) over elapsed time. This is what STREAM-style
	// probes report.
	BytesPerSec float64
	Stats       Stats
}

// CyclesPerRef returns average cycles per reference.
func (t Timing) CyclesPerRef() float64 {
	if t.Refs == 0 {
		return 0
	}
	return t.Cycles / float64(t.Refs)
}

// Timing prices the accumulated statistics under the machine's parameters.
//
// The model, per reference class (see package comment):
//
//	issue        every reference pays L1 issue/datapath throughput;
//	cache hit    served at level i>0: covered fills pay line/bandwidth,
//	             uncovered pay latency (MLP-overlapped);
//	memory       covered fills pay line/bandwidth, uncovered pay full
//	             memory latency divided by MLP; both are floored by the
//	             bus bandwidth of the bytes actually moved;
//	TLB          each miss pays the page-walk penalty, MLP-overlapped;
//	write-backs  pay memory bus bandwidth.
func (s *Simulator) Timing(opts TimingOpts) Timing {
	cfg := s.cfg
	st := s.Stats()
	nLevels := len(s.levels)

	mlp := cfg.MaxOutstandingMisses
	if opts.MLPCap > 0 && opts.MLPCap < mlp {
		mlp = opts.MLPCap
	}

	l1 := &s.levels[0].cfg
	issuePerRef := 1.0 / cfg.LoadStorePerCycle
	if dp := float64(access.ElemBytes) / l1.BandwidthBytesPerCycle; dp > issuePerRef {
		issuePerRef = dp
	}
	cycles := float64(st.Refs) * issuePerRef

	memBWBytesPerCycle := cfg.MemBandwidthGBs / cfg.ClockGHz // (GB/s)/(Gcyc/s)
	memLatCycles := cfg.MemLatencyNs * cfg.ClockGHz

	// Cache levels 1..n-1: filled from level i's own array.
	for i := 1; i < nLevels; i++ {
		lvl := &s.levels[i].cfg
		innerLine := float64(s.levels[i-1].cfg.LineBytes)
		covered := float64(st.Covered[i])
		uncovered := float64(st.ServedBy[i]) - covered
		cycles += covered * (innerLine / lvl.BandwidthBytesPerCycle)
		cycles += uncovered * (lvl.LatencyCycles / mlp)
	}

	// Memory-served references. Streaming (covered) fills move the
	// outermost cache's full line; demand (uncovered) fills and
	// write-backs move only the innermost line — outer caches are
	// sectored, and critical-word-first delivery means a random miss does
	// not pay for the whole outer line on the bus.
	llcLine := float64(s.levels[nLevels-1].cfg.LineBytes)
	// Demand fills deliver the critical 64-byte sector first; wide-line
	// machines do not pay their whole line on the bus per random miss.
	demandLine := float64(s.levels[0].cfg.LineBytes)
	if demandLine > 64 {
		demandLine = 64
	}
	memServed := st.ServedBy[nLevels]
	coveredMem := float64(st.Covered[nLevels])
	uncoveredMem := float64(memServed) - coveredMem

	covCycles := coveredMem * (llcLine / memBWBytesPerCycle)
	uncovLat := uncoveredMem * (memLatCycles / mlp)
	uncovBW := uncoveredMem * (demandLine / memBWBytesPerCycle)
	if uncovBW > uncovLat {
		uncovLat = uncovBW // latency model cannot beat the bus
	}
	cycles += covCycles + uncovLat

	// Write-backs consume bus bandwidth at demand granularity; the memory
	// controller's write buffering overlaps roughly half of that traffic
	// with demand fetches.
	cycles += 0.5 * float64(st.Writebacks) * (demandLine / memBWBytesPerCycle)

	// TLB page walks.
	if st.TLBMisses > 0 {
		cycles += float64(st.TLBMisses) * (cfg.TLBMissPenaltyNs * cfg.ClockGHz) / mlp
	}

	seconds := cycles / (cfg.ClockGHz * 1e9)
	bytesFromMem := int64(coveredMem*llcLine + (uncoveredMem+float64(st.Writebacks))*demandLine)
	out := Timing{
		Refs:            st.Refs,
		Cycles:          cycles,
		Seconds:         seconds,
		BytesFromMemory: bytesFromMem,
		Stats:           st,
	}
	if seconds > 0 {
		out.BytesPerSec = float64(st.Refs*access.ElemBytes) / seconds
	}
	return out
}

// RunStream drives n references from the spec through a fresh pass of the
// simulator (without resetting existing state) and returns the priced
// result for everything accumulated so far.
func (s *Simulator) RunStream(spec access.StreamSpec, n int, opts TimingOpts) (Timing, error) {
	stream, err := access.NewStream(spec)
	if err != nil {
		return Timing{}, err
	}
	for i := 0; i < n; i++ {
		ref := stream.Next()
		s.Access(ref.Addr, ref.Store)
	}
	return s.Timing(opts), nil
}

// Simulate is the one-shot run: a fresh simulator, a warm-up quarter of
// the stream to reach steady state (discarded from the statistics, as in
// the real probes' untimed first pass), then n references. The returned
// simulator holds their statistics; Timing prices them, and may be called
// more than once with different options.
func Simulate(cfg *machine.Config, spec access.StreamSpec, n int) (*Simulator, error) {
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	stream, err := access.NewStream(spec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n/4; i++ {
		ref := stream.Next()
		sim.Access(ref.Addr, ref.Store)
	}
	sim.ResetStats()
	for i := 0; i < n; i++ {
		ref := stream.Next()
		sim.Access(ref.Addr, ref.Store)
	}
	return sim, nil
}

// SimulateStream is Simulate priced once under opts.
func SimulateStream(cfg *machine.Config, spec access.StreamSpec, n int, opts TimingOpts) (Timing, error) {
	sim, err := Simulate(cfg, spec, n)
	if err != nil {
		return Timing{}, err
	}
	return sim.Timing(opts), nil
}
