package memsim

import (
	"testing"
	"testing/quick"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/machine"
)

func newSim(t *testing.T, name string) *Simulator {
	t.Helper()
	sim, err := New(machine.MustPreset(name))
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return sim
}

// tinyMachine returns a small, hand-checkable configuration: 2-line
// direct-mapped L1 over a 4-line L2.
func tinyMachine() *machine.Config {
	return &machine.Config{
		Name: "tiny", ClockGHz: 1, FPPerCycle: 1, FPLatencyCycles: 1,
		IssueWidth: 1, LoadStorePerCycle: 1, MaxOutstandingMisses: 1,
		Caches: []machine.CacheLevel{
			{Name: "L1", SizeBytes: 128, LineBytes: 64, Assoc: 1, LatencyCycles: 1, BandwidthBytesPerCycle: 8},
			{Name: "L2", SizeBytes: 256, LineBytes: 64, Assoc: 2, LatencyCycles: 4, BandwidthBytesPerCycle: 4},
		},
		MemLatencyNs: 100, MemBandwidthGBs: 1, PageBytes: 4096,
		MemLoadedFraction: 1, MemLoadedLatencyFactor: 1,
		CoresPerNode: 1, TotalProcs: 1,
		Net: machine.Network{LatencyUs: 1, BandwidthMBs: 100, NICsPerNode: 1},
	}
}

func TestColdMissThenHit(t *testing.T) {
	sim, err := New(tinyMachine())
	if err != nil {
		t.Fatal(err)
	}
	sim.Access(0, false) // cold: served by memory
	sim.Access(8, false) // same line: L1 hit
	st := sim.Stats()
	if st.ServedBy[0] != 1 {
		t.Errorf("L1 hits = %d, want 1", st.ServedBy[0])
	}
	if st.ServedBy[2] != 1 {
		t.Errorf("memory served = %d, want 1", st.ServedBy[2])
	}
}

func TestConflictEviction(t *testing.T) {
	// Direct-mapped 2-set L1 (64B lines): addresses 0 and 128 collide in
	// set 0; alternating between them always misses L1 but hits 2-way L2.
	sim, err := New(tinyMachine())
	if err != nil {
		t.Fatal(err)
	}
	sim.Access(0, false)
	sim.Access(128, false)
	sim.ResetStats()
	for i := 0; i < 10; i++ {
		sim.Access(0, false)
		sim.Access(128, false)
	}
	st := sim.Stats()
	if st.ServedBy[0] != 0 {
		t.Errorf("L1 hits = %d, want 0 (conflict)", st.ServedBy[0])
	}
	if st.ServedBy[1] != 20 {
		t.Errorf("L2 hits = %d, want 20", st.ServedBy[1])
	}
}

func TestLRUWithinSet(t *testing.T) {
	// L2 is 2-way with 2 sets; lines 0, 128, 256 all map to set 0.
	// Touch 0, 128, then 256 (evicts 0), then 0 again: must come from
	// memory, while 256 and 128 still hit.
	cfg := tinyMachine()
	cfg.Caches = cfg.Caches[1:] // L2 only for clarity
	cfg.Caches[0].Name = "L1"
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Access(0, false)
	sim.Access(128, false)
	sim.Access(256, false) // evicts LRU line 0
	sim.ResetStats()
	sim.Access(128, false)
	sim.Access(256, false)
	st := sim.Stats()
	if st.ServedBy[0] != 2 {
		t.Fatalf("expected 128 and 256 resident, hits=%d", st.ServedBy[0])
	}
	sim.ResetStats()
	sim.Access(0, false)
	if st := sim.Stats(); st.ServedBy[1] != 1 {
		t.Fatalf("line 0 should have been evicted; memory served=%d", st.ServedBy[1])
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	cfg := tinyMachine()
	cfg.Caches = cfg.Caches[1:] // single level, 2 sets x 2 ways
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Access(0, true)    // dirty line 0 in set 0
	sim.Access(128, false) // clean line in set 0
	sim.Access(256, false) // evicts LRU (line 0, dirty)
	st := sim.Stats()
	if st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writebacks)
	}
}

func TestStoreHitMarksDirty(t *testing.T) {
	cfg := tinyMachine()
	cfg.Caches = cfg.Caches[1:]
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Access(0, false) // clean fill
	sim.Access(0, true)  // store hit dirties it
	sim.Access(128, false)
	sim.Access(256, false) // evict line 0
	if st := sim.Stats(); st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1 (store hit must dirty line)", st.Writebacks)
	}
}

func TestUnitStrideMostlyHits(t *testing.T) {
	sim := newSim(t, machine.ARLOpteron)
	spec := access.StreamSpec{WorkingSetBytes: 32 << 20, Mix: access.Mix{Unit: 1}, Seed: 1}
	res, err := sim.RunStream(spec, 100000, TimingOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// 64B lines, 8B elements: 7/8 of unit-stride references hit L1.
	l1Frac := float64(res.Stats.ServedBy[0]) / float64(res.Refs)
	if l1Frac < 0.8 {
		t.Fatalf("unit stride L1 hit fraction = %g, want > 0.8", l1Frac)
	}
}

func TestUnitStrideMissesAreCovered(t *testing.T) {
	sim := newSim(t, machine.ARLOpteron)
	spec := access.StreamSpec{WorkingSetBytes: 64 << 20, Mix: access.Mix{Unit: 1}, Seed: 1}
	res, err := sim.RunStream(spec, 200000, TimingOpts{})
	if err != nil {
		t.Fatal(err)
	}
	mem := res.Stats.ServedBy[len(res.Stats.ServedBy)-1]
	cov := res.Stats.Covered[len(res.Stats.Covered)-1]
	if mem == 0 {
		t.Fatal("expected memory traffic for 64MB working set")
	}
	if frac := float64(cov) / float64(mem); frac < 0.9 {
		t.Fatalf("prefetch coverage = %g, want > 0.9 for unit stride", frac)
	}
}

func TestRandomMissesAreNotCovered(t *testing.T) {
	sim := newSim(t, machine.ARLOpteron)
	spec := access.StreamSpec{WorkingSetBytes: 256 << 20, Mix: access.Mix{Random: 1}, Seed: 1}
	res, err := sim.RunStream(spec, 100000, TimingOpts{})
	if err != nil {
		t.Fatal(err)
	}
	mem := res.Stats.ServedBy[len(res.Stats.ServedBy)-1]
	cov := res.Stats.Covered[len(res.Stats.Covered)-1]
	if mem < 50000 {
		t.Fatalf("random over 256MB should mostly miss; memory served = %d", mem)
	}
	if frac := float64(cov) / float64(mem); frac > 0.05 {
		t.Fatalf("prefetch coverage = %g for random stream, want ~0", frac)
	}
}

func TestSmallWorkingSetStaysInCache(t *testing.T) {
	sim := newSim(t, machine.NAVO655)
	spec := access.StreamSpec{WorkingSetBytes: 16 << 10, Mix: access.Mix{Unit: 1}, Seed: 1}
	res, err := sim.RunStream(spec, 100000, TimingOpts{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if missRate := float64(st.ServedBy[len(st.ServedBy)-1]) / float64(st.Refs); missRate > 0.01 {
		t.Fatalf("16KB working set miss rate = %g, want ~0", missRate)
	}
}

func TestStreamFasterThanRandom(t *testing.T) {
	for _, name := range machine.Names() {
		cfg := machine.MustPreset(name)
		const ws = 128 << 20
		unit, err := SimulateStream(cfg, access.StreamSpec{WorkingSetBytes: ws, Mix: access.Mix{Unit: 1}, Seed: 1}, 100000, TimingOpts{})
		if err != nil {
			t.Fatal(err)
		}
		random, err := SimulateStream(cfg, access.StreamSpec{WorkingSetBytes: ws, Mix: access.Mix{Random: 1}, Seed: 1}, 100000, TimingOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if unit.BytesPerSec <= random.BytesPerSec {
			t.Errorf("%s: unit stride %.3g B/s not faster than random %.3g B/s",
				name, unit.BytesPerSec, random.BytesPerSec)
		}
	}
}

func TestCacheResidentFasterThanMemory(t *testing.T) {
	for _, name := range []string{machine.NAVO655, machine.ARLAltix, machine.ARLOpteron} {
		cfg := machine.MustPreset(name)
		small, err := SimulateStream(cfg, access.StreamSpec{WorkingSetBytes: 8 << 10, Mix: access.Mix{Unit: 1}, Seed: 1}, 100000, TimingOpts{})
		if err != nil {
			t.Fatal(err)
		}
		big, err := SimulateStream(cfg, access.StreamSpec{WorkingSetBytes: 256 << 20, Mix: access.Mix{Unit: 1}, Seed: 1}, 100000, TimingOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if small.BytesPerSec <= big.BytesPerSec {
			t.Errorf("%s: L1-resident %.3g B/s not faster than memory %.3g B/s",
				name, small.BytesPerSec, big.BytesPerSec)
		}
	}
}

func TestMLPCapSlowsRandomAccess(t *testing.T) {
	cfg := machine.MustPreset(machine.ARLOpteron)
	spec := access.StreamSpec{WorkingSetBytes: 256 << 20, Mix: access.Mix{Random: 1}, Seed: 1}
	free, err := SimulateStream(cfg, spec, 50000, TimingOpts{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := SimulateStream(cfg, spec, 50000, TimingOpts{MLPCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Seconds <= free.Seconds {
		t.Fatalf("MLP cap did not slow random access: %g vs %g", capped.Seconds, free.Seconds)
	}
}

func TestTLBMissesOnHugeRandom(t *testing.T) {
	sim := newSim(t, machine.ARLXeon) // 64-entry TLB, 4K pages: 256KB reach
	spec := access.StreamSpec{WorkingSetBytes: 512 << 20, Mix: access.Mix{Random: 1}, Seed: 1}
	res, err := sim.RunStream(spec, 50000, TimingOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(res.Stats.TLBMisses) / float64(res.Refs); frac < 0.5 {
		t.Fatalf("TLB miss fraction = %g over 512MB random, want > 0.5", frac)
	}
}

func TestResetClearsEverything(t *testing.T) {
	sim := newSim(t, machine.ARLOpteron)
	sim.Access(0, true)
	sim.Access(64, false)
	sim.Reset()
	st := sim.Stats()
	if st.Refs != 0 || st.Stores != 0 {
		t.Fatal("Reset left counters")
	}
	sim.Access(0, false)
	if st := sim.Stats(); st.ServedBy[len(st.ServedBy)-1] != 1 {
		t.Fatal("Reset left cache contents (expected cold miss)")
	}
}

func TestTimingPositive(t *testing.T) {
	sim := newSim(t, machine.MHPCCPower3)
	spec := access.StreamSpec{WorkingSetBytes: 1 << 20, Mix: access.Mix{Unit: 0.8, Random: 0.2}, Seed: 2}
	res, err := sim.RunStream(spec, 20000, TimingOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Seconds <= 0 || res.BytesPerSec <= 0 {
		t.Fatalf("non-positive timing: %+v", res)
	}
}

// Property: references are conserved across the serving levels.
func TestQuickServedConservation(t *testing.T) {
	cfg := machine.MustPreset(machine.NAVO655)
	f := func(wsKB uint16, seed uint16, mixSel uint8) bool {
		ws := int64(wsKB)%8192*1024 + 1024
		mixes := []access.Mix{
			{Unit: 1}, {Random: 1}, {Short: 1},
			{Unit: 0.5, Short: 0.25, Random: 0.25},
		}
		spec := access.StreamSpec{
			WorkingSetBytes: ws,
			Mix:             mixes[int(mixSel)%len(mixes)],
			Seed:            uint64(seed),
		}
		sim, err := New(cfg)
		if err != nil {
			return false
		}
		const n = 3000
		res, err := sim.RunStream(spec, n, TimingOpts{})
		if err != nil {
			return false
		}
		var sum int64
		for i, served := range res.Stats.ServedBy {
			if served < 0 || res.Stats.Covered[i] > served {
				return false
			}
			sum += served
		}
		return sum == n && res.Stats.Refs == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: growing every cache level never increases the memory-served
// count for the same stream (inclusion/monotonicity).
func TestQuickBiggerCacheNoWorse(t *testing.T) {
	f := func(wsKB uint16, seed uint16) bool {
		ws := int64(wsKB)%4096*1024 + 4096
		spec := access.StreamSpec{
			WorkingSetBytes: ws,
			Mix:             access.Mix{Unit: 0.6, Random: 0.4},
			Seed:            uint64(seed),
		}
		small := machine.MustPreset(machine.ARLOpteron)
		big := small.Clone()
		for i := range big.Caches {
			big.Caches[i].SizeBytes *= 4
		}
		run := func(cfg *machine.Config) (int64, bool) {
			sim, err := New(cfg)
			if err != nil {
				return 0, false
			}
			res, err := sim.RunStream(spec, 2000, TimingOpts{})
			if err != nil {
				return 0, false
			}
			return res.Stats.ServedBy[len(res.Stats.ServedBy)-1], true
		}
		memSmall, ok1 := run(small)
		memBig, ok2 := run(big)
		return ok1 && ok2 && memBig <= memSmall
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsInvalidMachine(t *testing.T) {
	cfg := tinyMachine()
	cfg.ClockGHz = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted invalid machine")
	}
}
