package machine

import (
	"strings"
	"testing"
)

func TestAllPresetsValidate(t *testing.T) {
	for _, name := range Names() {
		cfg := MustPreset(name)
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("no_such_machine"); err == nil {
		t.Fatal("expected error for unknown preset")
	}
}

func TestMustPresetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPreset did not panic on unknown name")
		}
	}()
	MustPreset("bogus")
}

func TestStudyTargetsOrderAndCount(t *testing.T) {
	targets := StudyTargets()
	if len(targets) != 10 {
		t.Fatalf("expected 10 study targets, got %d", len(targets))
	}
	want := []string{
		ERDCOrigin3800, MHPCCPower3, NAVOPower3, ASCSC45, MHPCC690,
		ARL690, ARLXeon, ARLAltix, NAVO655, ARLOpteron,
	}
	for i, cfg := range targets {
		if cfg.Name != want[i] {
			t.Errorf("target %d = %s, want %s", i, cfg.Name, want[i])
		}
	}
}

func TestBaseIsNotATarget(t *testing.T) {
	base := Base()
	if base.Name != BaseSystemName {
		t.Fatalf("base name = %s", base.Name)
	}
	for _, cfg := range StudyTargets() {
		if cfg.Name == base.Name {
			t.Fatalf("base system %s appears among targets", base.Name)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := MustPreset(ARLOpteron)
	b := a.Clone()
	b.Caches[0].SizeBytes = 1 << 30
	if a.Caches[0].SizeBytes == b.Caches[0].SizeBytes {
		t.Fatal("Clone shares cache slice")
	}
}

func TestPresetReturnsFreshCopy(t *testing.T) {
	a := MustPreset(ARLXeon)
	a.ClockGHz = 99
	b := MustPreset(ARLXeon)
	if b.ClockGHz == 99 {
		t.Fatal("Preset returned shared state")
	}
}

func TestPeakGFlops(t *testing.T) {
	p655 := MustPreset(NAVO655)
	if got, want := p655.PeakGFlops(), 6.8; got != want {
		t.Errorf("p655 peak = %g, want %g", got, want)
	}
}

func TestCycleNs(t *testing.T) {
	cfg := MustPreset(ASCSC45) // 1 GHz
	if got := cfg.CycleNs(); got != 1.0 {
		t.Errorf("1 GHz cycle = %g ns, want 1", got)
	}
}

func TestNodes(t *testing.T) {
	cfg := MustPreset(ARLXeon) // 256 procs, 2 cores/node
	if got := cfg.Nodes(); got != 128 {
		t.Errorf("nodes = %d, want 128", got)
	}
	cfg.TotalProcs = 257
	if got := cfg.Nodes(); got != 129 {
		t.Errorf("nodes (round up) = %d, want 129", got)
	}
}

func TestCacheSets(t *testing.T) {
	l := CacheLevel{SizeBytes: 64 * kb, LineBytes: 64, Assoc: 2}
	if got := l.Sets(); got != 512 {
		t.Errorf("sets = %d, want 512", got)
	}
	full := CacheLevel{SizeBytes: 64 * kb, LineBytes: 64, Assoc: 0}
	if got := full.Sets(); got != 1 {
		t.Errorf("fully associative sets = %d, want 1", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"empty name", func(c *Config) { c.Name = " " }},
		{"zero clock", func(c *Config) { c.ClockGHz = 0 }},
		{"zero fp", func(c *Config) { c.FPPerCycle = 0 }},
		{"zero fp latency", func(c *Config) { c.FPLatencyCycles = 0 }},
		{"zero issue", func(c *Config) { c.IssueWidth = 0 }},
		{"zero ls", func(c *Config) { c.LoadStorePerCycle = 0 }},
		{"zero mlp", func(c *Config) { c.MaxOutstandingMisses = 0 }},
		{"zero mem latency", func(c *Config) { c.MemLatencyNs = 0 }},
		{"zero mem bw", func(c *Config) { c.MemBandwidthGBs = 0 }},
		{"bad page", func(c *Config) { c.PageBytes = 3000 }},
		{"negative tlb", func(c *Config) { c.TLBEntries = -1 }},
		{"zero cores", func(c *Config) { c.CoresPerNode = 0 }},
		{"zero procs", func(c *Config) { c.TotalProcs = 0 }},
		{"bad overlap", func(c *Config) { c.MemOverlapFraction = 1.5 }},
		{"zero loaded fraction", func(c *Config) { c.MemLoadedFraction = 0 }},
		{"loaded fraction above 1", func(c *Config) { c.MemLoadedFraction = 1.2 }},
		{"loaded latency below 1", func(c *Config) { c.MemLoadedLatencyFactor = 0.8 }},
		{"no caches", func(c *Config) { c.Caches = nil }},
		{"shrinking caches", func(c *Config) { c.Caches[1].SizeBytes = c.Caches[0].SizeBytes }},
		{"bad line", func(c *Config) { c.Caches[0].LineBytes = 48 }},
		{"line below element", func(c *Config) { c.Caches[0].LineBytes = 4 }},
		{"bad net latency", func(c *Config) { c.Net.LatencyUs = 0 }},
		{"bad net bw", func(c *Config) { c.Net.BandwidthMBs = -1 }},
		{"no nics", func(c *Config) { c.Net.NICsPerNode = 0 }},
		{"bad beta", func(c *Config) { c.Net.ContentionBeta = 2 }},
	}
	for _, tc := range mutations {
		cfg := MustPreset(ARLOpteron)
		tc.mut(cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted broken config", tc.name)
		}
	}
}

func TestTopologyString(t *testing.T) {
	cases := map[Topology]string{
		TopologyFatTree:  "fat-tree",
		TopologyNUMALink: "numalink",
		TopologyClos:     "clos",
		TopologyColony:   "colony",
		Topology(42):     "topology(42)",
	}
	for topo, want := range cases {
		if got := topo.String(); got != want {
			t.Errorf("Topology(%d).String() = %q, want %q", int(topo), got, want)
		}
	}
}

func TestConfigString(t *testing.T) {
	s := MustPreset(ARLAltix).String()
	if !strings.Contains(s, ARLAltix) || !strings.Contains(s, "numalink") {
		t.Errorf("String() = %q, missing name or topology", s)
	}
}

func TestLoadedView(t *testing.T) {
	cfg := MustPreset(ARLXeon)
	loaded := cfg.Loaded()
	if loaded.MemBandwidthGBs >= cfg.MemBandwidthGBs {
		t.Fatal("loaded bandwidth not reduced")
	}
	if loaded.MemLatencyNs <= cfg.MemLatencyNs {
		t.Fatal("loaded latency not increased")
	}
	// Applying the loaded view twice must be a no-op.
	twice := loaded.Loaded()
	if twice.MemBandwidthGBs != loaded.MemBandwidthGBs || twice.MemLatencyNs != loaded.MemLatencyNs {
		t.Fatal("Loaded not idempotent")
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("loaded view invalid: %v", err)
	}
}

func TestPresetDiversity(t *testing.T) {
	// The study depends on the targets spanning different balances; guard
	// that the flop:bandwidth ratio varies by at least 4x across targets.
	minRatio, maxRatio := 1e300, 0.0
	for _, cfg := range StudyTargets() {
		r := cfg.PeakGFlops() / cfg.MemBandwidthGBs
		if r < minRatio {
			minRatio = r
		}
		if r > maxRatio {
			maxRatio = r
		}
	}
	if maxRatio/minRatio < 4 {
		t.Errorf("machine balance spread %.2fx too small for the study", maxRatio/minRatio)
	}
}
