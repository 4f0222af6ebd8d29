// Package memsim simulates a machine's memory hierarchy.
//
// A Simulator is built from a machine.Config and consumes a byte-address
// reference stream. It models:
//
//   - multi-level inclusive set-associative caches with LRU replacement
//     and write-allocate stores;
//   - a stride prefetcher trained on the miss stream (references whose
//     line fill the prefetcher predicted are "covered": they cost memory
//     bandwidth rather than exposed latency);
//   - a data TLB with CLOCK (second-chance) replacement;
//   - a timing model that prices each reference by the level that served
//     it — issue-limited at L1, bandwidth-limited when covered,
//     latency-limited (divided by the machine's memory-level parallelism)
//     when not — plus write-back traffic.
//
// This simulator is the "real machine" of the study: both the ground-truth
// application executor and the synthetic memory probes (STREAM, GUPS,
// MAPS) run on it, so observed times and probe rates are self-consistent,
// as they are on real hardware.
//
// Simulating and pricing are separate steps: Simulate runs a stream and
// Timing prices the counters it left, as often as needed. ENHANCED MAPS
// uses this — it is the MAPS sweep's simulation priced a second time,
// with TimingOpts.MLPCap at the dependent-chain cap and an FP-latency
// chain added per element by the probe.
package memsim

import (
	"fmt"

	"hpcmetrics/internal/machine"
)

// A cache level keeps every set's ways in one flat slice, set after set,
// each set in MRU-first order. A way holds line<<2 | validBit, plus
// dirtyBit when the line was stored to. Empty ways are zero and sit at the
// tail of their set, so a lookup stops at the first one. Zero can never
// alias a filled way because every filled way carries validBit, and
// line<<2 cannot overflow because machine.Validate rejects lines smaller
// than access.ElemBytes, so line < 2^61.
const (
	dirtyBit uint64 = 1
	validBit uint64 = 2
)

type cacheLevel struct {
	cfg      machine.CacheLevel
	ways     []uint64 // nSets × assoc entries
	setMask  uint64
	assoc    int
	lineShft uint
}

// Stats counts what happened to the reference stream.
type Stats struct {
	Refs   int64
	Stores int64
	// ServedBy[i] counts references served at cache level i; the final
	// element counts references served by main memory.
	ServedBy []int64
	// Covered[i] counts the ServedBy[i] references whose fill the
	// prefetcher had predicted (i >= 1; Covered[0] is always zero).
	Covered []int64
	// Writebacks counts dirty lines evicted from the outermost cache.
	Writebacks int64
	// TLBMisses counts data-TLB misses.
	TLBMisses int64
}

// MissRate returns the fraction of references served by main memory.
func (s Stats) MissRate() float64 {
	if s.Refs == 0 {
		return 0
	}
	return float64(s.ServedBy[len(s.ServedBy)-1]) / float64(s.Refs)
}

// Simulator drives one processor's memory hierarchy.
type Simulator struct {
	cfg    *machine.Config
	levels []*cacheLevel
	pf     *prefetcher
	tlb    *tlb
	stats  Stats
}

// New builds a simulator for the machine. The config must validate.
func New(cfg *machine.Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("memsim: %w", err)
	}
	s := &Simulator{cfg: cfg}
	for _, lc := range cfg.Caches {
		lvl := &cacheLevel{cfg: lc, assoc: lc.Assoc}
		if lvl.assoc <= 0 {
			lvl.assoc = int(lc.SizeBytes / lc.LineBytes) // fully associative
		}
		nSets := lc.SizeBytes / (lc.LineBytes * int64(lvl.assoc))
		lvl.ways = make([]uint64, nSets*int64(lvl.assoc))
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
	return s, nil
}

func newStats(levels int) Stats {
	return Stats{
		ServedBy: make([]int64, levels+1),
		Covered:  make([]int64, levels+1),
	}
}

// Reset clears cache contents, prefetcher state, TLB, and statistics.
func (s *Simulator) Reset() {
	for _, lvl := range s.levels {
		clear(lvl.ways)
	}
	s.pf.reset()
	if s.tlb != nil {
		s.tlb.reset()
	}
	s.stats = newStats(len(s.levels))
}

// set returns the ways of the set holding line.
func (l *cacheLevel) set(line uint64) []uint64 {
	base := int(line&l.setMask) * l.assoc
	return l.ways[base : base+l.assoc : base+l.assoc]
}

// lookup probes one level; on hit the line moves to MRU position and dirty
// is ORed with store.
func (l *cacheLevel) lookup(addr uint64, store bool) bool {
	line := addr >> l.lineShft
	set := l.set(line)
	want := line<<2 | validBit
	for i, w := range set {
		if w&^dirtyBit == want {
			if store {
				w |= dirtyBit
			}
			if i > 0 {
				copy(set[1:i+1], set[:i]) // move to front (MRU)
			}
			set[0] = w
			return true
		}
		if w == 0 {
			return false
		}
	}
	return false
}

// fill inserts the line at MRU, evicting the LRU line if the set is full.
// It reports whether a dirty line was evicted. The caller has just missed
// the line at this level, so the set does not hold it.
func (l *cacheLevel) fill(addr uint64, store bool) (evictedDirty bool) {
	line := addr >> l.lineShft
	set := l.set(line)
	evictedDirty = set[len(set)-1]&dirtyBit != 0
	copy(set[1:], set[:len(set)-1])
	set[0] = line<<2 | validBit
	if store {
		set[0] |= dirtyBit
	}
	return evictedDirty
}

// Access runs one reference through the hierarchy.
func (s *Simulator) Access(addr uint64, store bool) {
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

	// Miss in at least L1: train the prefetcher on the L1 miss-line stream
	// and ask whether this fill was predicted.
	covered := s.pf.observeMiss(addr >> s.levels[0].lineShft)
	s.stats.ServedBy[served]++
	if covered {
		s.stats.Covered[served]++
	}

	// Fill every level inside the serving one (inclusive hierarchy). When
	// memory served the reference this fills all cache levels.
	for i := served - 1; i >= 0; i-- {
		evictedDirty := s.levels[i].fill(addr, store)
		if evictedDirty && i == len(s.levels)-1 {
			s.stats.Writebacks++
		}
	}
}

// ResetStats clears the counters but keeps cache, prefetcher, and TLB
// state, so a warmed simulator can start a timed section.
func (s *Simulator) ResetStats() {
	s.stats = newStats(len(s.levels))
}

// Stats returns a copy of the accumulated counters.
func (s *Simulator) Stats() Stats {
	out := s.stats
	out.ServedBy = append([]int64(nil), s.stats.ServedBy...)
	out.Covered = append([]int64(nil), s.stats.Covered...)
	return out
}
