package memsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/machine"
)

// The reference simulator keeps the slice-based move-to-front LRU sets
// the simulator used before they were flattened into one packed slice per
// level: a per-set []uint64 of tags plus a parallel []bool of dirty bits,
// shifted with copy + append. Its cacheSet, lookup and fill are frozen;
// the prefetcher, the TLB and the pricing are shared with Simulator.

// cacheSet holds the lines of one set in MRU-first order.
type cacheSet struct {
	tags  []uint64
	dirty []bool
}

type refLevel struct {
	sets     []cacheSet
	setMask  uint64
	ways     int
	lineShft uint
}

type refSimulator struct {
	levels []*refLevel
	pf     *prefetcher
	tlb    *tlb
	stats  Stats
}

func newReference(cfg *machine.Config) *refSimulator {
	s := &refSimulator{}
	for _, lc := range cfg.Caches {
		lvl := &refLevel{ways: lc.Assoc}
		if lvl.ways <= 0 {
			lvl.ways = int(lc.SizeBytes / lc.LineBytes) // fully associative
		}
		nSets := lc.SizeBytes / (lc.LineBytes * int64(lvl.ways))
		lvl.sets = make([]cacheSet, nSets)
		lvl.setMask = uint64(nSets - 1)
		for b := lc.LineBytes; b > 1; b >>= 1 {
			lvl.lineShft++
		}
		s.levels = append(s.levels, lvl)
	}
	s.pf = newPrefetcher(cfg.PrefetchStreams, cfg.PrefetchMaxStride)
	if cfg.TLBEntries > 0 {
		s.tlb = newTLB(cfg.TLBEntries, cfg.PageBytes)
	}
	s.stats = newStats(len(s.levels))
	return s
}

func (s *refSimulator) Reset() {
	for _, lvl := range s.levels {
		for i := range lvl.sets {
			lvl.sets[i].tags = lvl.sets[i].tags[:0]
			lvl.sets[i].dirty = lvl.sets[i].dirty[:0]
		}
	}
	s.pf.reset()
	if s.tlb != nil {
		s.tlb.reset()
	}
	s.stats = newStats(len(s.levels))
}

// lookup probes one level; on hit the line moves to MRU position and dirty
// is ORed with store.
func (l *refLevel) lookup(addr uint64, store bool) bool {
	line := addr >> l.lineShft
	set := &l.sets[line&l.setMask]
	for i, tag := range set.tags {
		if tag == line {
			d := set.dirty[i] || store
			// Move to front (MRU).
			copy(set.tags[1:i+1], set.tags[:i])
			copy(set.dirty[1:i+1], set.dirty[:i])
			set.tags[0], set.dirty[0] = line, d
			return true
		}
	}
	return false
}

// fill inserts the line at MRU, evicting the LRU line if the set is full.
// It reports whether a dirty line was evicted.
func (l *refLevel) fill(addr uint64, store bool) (evictedDirty bool) {
	line := addr >> l.lineShft
	set := &l.sets[line&l.setMask]
	if len(set.tags) >= l.ways {
		last := len(set.tags) - 1
		evictedDirty = set.dirty[last]
		set.tags = set.tags[:last]
		set.dirty = set.dirty[:last]
	}
	set.tags = append(set.tags, 0)
	set.dirty = append(set.dirty, false)
	copy(set.tags[1:], set.tags)
	copy(set.dirty[1:], set.dirty)
	set.tags[0], set.dirty[0] = line, store
	return evictedDirty
}

func (s *refSimulator) Access(addr uint64, store bool) {
	s.stats.Refs++
	if store {
		s.stats.Stores++
	}
	if s.tlb != nil && !s.tlb.access(addr) {
		s.stats.TLBMisses++
	}

	served := len(s.levels) // memory unless a cache hits
	for i, lvl := range s.levels {
		if lvl.lookup(addr, store) {
			served = i
			break
		}
	}

	if served == 0 {
		s.stats.ServedBy[0]++
		return
	}

	covered := s.pf.observeMiss(addr >> s.levels[0].lineShft)
	s.stats.ServedBy[served]++
	if covered {
		s.stats.Covered[served]++
	}

	for i := served - 1; i >= 0; i-- {
		evictedDirty := s.levels[i].fill(addr, store)
		if evictedDirty && i == len(s.levels)-1 {
			s.stats.Writebacks++
		}
	}
}

// pair drives the simulator under test and the reference in lockstep.
type pair struct {
	cfg *machine.Config
	sim *Simulator
	ref *refSimulator
}

func newPair(t *testing.T, cfg *machine.Config) *pair {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &pair{cfg: cfg, sim: sim, ref: newReference(cfg)}
}

func (p *pair) access(addr uint64, store bool) {
	p.sim.Access(addr, store)
	p.ref.Access(addr, store)
}

// run feeds n references of the spec to both, the way Simulate does: a
// warm-up quarter, a statistics reset, then n references.
func (p *pair) run(t *testing.T, spec access.StreamSpec, n int) {
	t.Helper()
	stream, err := access.NewStream(spec)
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	for i := 0; i < n/4; i++ {
		ref := stream.Next()
		p.access(ref.Addr, ref.Store)
	}
	p.sim.ResetStats()
	p.ref.stats = newStats(len(p.ref.levels))
	for i := 0; i < n; i++ {
		ref := stream.Next()
		p.access(ref.Addr, ref.Store)
	}
}

// check requires identical statistics and bit-identical cycles under
// both the machine's MLP and the dependent-chain cap.
func (p *pair) check(t *testing.T, what string) {
	t.Helper()
	got, want := p.sim.Stats(), p.ref.stats
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s on %s: stats %+v, reference %+v", what, p.cfg.Name, got, want)
	}
	priced, err := New(p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	priced.stats = want
	for _, opts := range []TimingOpts{{}, {MLPCap: 1}} {
		g, w := p.sim.Timing(opts), priced.Timing(opts)
		if math.Float64bits(g.Cycles) != math.Float64bits(w.Cycles) {
			t.Fatalf("%s on %s, %+v: cycles %v, reference %v", what, p.cfg.Name, opts, g.Cycles, w.Cycles)
		}
	}
}

// randomSpec draws a stream spec covering the generator's knobs: unit,
// short, random and mixed strides, hot regions, gather spread, stores, and
// working sets from one element to 512 MB.
func randomSpec(rng *rand.Rand) access.StreamSpec {
	mixes := []access.Mix{
		{Unit: 1}, {Short: 1}, {Random: 1},
		{Unit: 0.5, Short: 0.25, Random: 0.25},
		{Unit: 0.9, Random: 0.1},
	}
	spec := access.StreamSpec{
		WorkingSetBytes: access.ElemBytes << rng.Intn(27), // 8 B .. 512 MB
		Mix:             mixes[rng.Intn(len(mixes))],
		StoreFraction:   []float64{0, 0.25, 0.5, 1}[rng.Intn(4)],
		Seed:            rng.Uint64(),
	}
	if spec.Mix.Short > 0 {
		spec.ShortStrideElems = int64(2 + rng.Intn(access.MaxShortStride-1))
	}
	if rng.Intn(2) == 0 {
		spec.HotFraction = rng.Float64() * 0.9
		spec.HotBytes = int64(1+rng.Intn(64)) << 10
	}
	if spec.Mix.Random > 0 && rng.Intn(2) == 0 {
		spec.GatherSpread = 1 + rng.Float64()*7
	}
	return spec
}

// TestMatchesReference is the differential test of the flat sets: every
// preset runs randomized streams, back to back on one simulator, and a
// Reset before reuse, in lockstep with the reference.
func TestMatchesReference(t *testing.T) {
	n, specs := 50000, 12
	if testing.Short() {
		n, specs = 10000, 4
	}
	for pi, name := range machine.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := machine.MustPreset(name)
			rng := rand.New(rand.NewSource(int64(pi) + 1))
			p := newPair(t, cfg)
			for i := 0; i < specs; i++ {
				spec := randomSpec(rng)
				p.run(t, spec, n)
				p.check(t, fmt.Sprintf("spec %d %+v", i, spec))
			}
			p.sim.Reset()
			p.ref.Reset()
			spec := randomSpec(rng)
			p.run(t, spec, n)
			p.check(t, fmt.Sprintf("after Reset %+v", spec))
		})
	}
}

// TestMatchesReferenceAtAddressExtremes drives lines at both ends of the
// address space into shared sets — line 0, whose packed way must not read
// as empty, and lines just below 2^64, whose packing must not overflow —
// with stores, so dirty evictions and write-backs are compared too.
func TestMatchesReferenceAtAddressExtremes(t *testing.T) {
	for _, name := range machine.Names() {
		cfg := machine.MustPreset(name)
		p := newPair(t, cfg)
		llc := cfg.Caches[len(cfg.Caches)-1]
		stride := uint64(llc.SizeBytes) // same set at every level
		top := ^uint64(0)
		for round := 0; round < 3; round++ {
			for k := uint64(0); k < 40; k++ {
				store := (k+uint64(round))%3 == 0
				p.access(k*stride, store)
				p.access(top-k*stride, store)
				p.access(top-k*stride-access.ElemBytes, !store)
			}
			p.check(t, fmt.Sprintf("extremes round %d", round))
		}
		p.sim.Reset()
		p.ref.Reset()
		p.access(0, false)
		p.access(top, true)
		p.check(t, "extremes after Reset")
	}
}
