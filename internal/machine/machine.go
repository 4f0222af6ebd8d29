// Package machine describes the hardware systems under study.
//
// A Config captures everything the simulators need to stand in for one of
// the paper's HPC systems: processor clock and issue resources, the cache
// hierarchy, main-memory latency and bandwidth, and the interconnect.
// The package also ships presets for the eleven systems of the SC'05 study
// (ten prediction targets plus the NAVO p690 base system).
//
// Unit conventions: clock in GHz, latencies in nanoseconds or cycles as
// named, bandwidths in bytes/second unless the field name says otherwise,
// sizes in bytes.
package machine

import (
	"errors"
	"fmt"
	"strings"

	"hpcmetrics/internal/access"
)

// CacheLevel describes one level of a set-associative cache.
type CacheLevel struct {
	Name          string  // "L1", "L2", "L3"
	SizeBytes     int64   // total capacity
	LineBytes     int64   // cache line size
	Assoc         int     // ways; Assoc == 0 means fully associative
	LatencyCycles float64 // load-to-use latency on a hit
	// BandwidthBytesPerCycle bounds sustained transfer from this level to
	// the core when streaming (hits at this level).
	BandwidthBytesPerCycle float64
}

// Sets returns the number of sets in the cache.
func (c CacheLevel) Sets() int64 {
	ways := int64(c.Assoc)
	if ways <= 0 { // fully associative
		return 1
	}
	return c.SizeBytes / (c.LineBytes * ways)
}

// Validate reports structural problems in the level description.
func (c CacheLevel) Validate() error {
	switch {
	case c.SizeBytes <= 0:
		return fmt.Errorf("cache %s: non-positive size %d", c.Name, c.SizeBytes)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a positive power of two", c.Name, c.LineBytes)
	case c.LineBytes < access.ElemBytes:
		// memsim's packed way encoding relies on this bound.
		return fmt.Errorf("cache %s: line size %d smaller than a %d-byte element", c.Name, c.LineBytes, access.ElemBytes)
	case c.SizeBytes%c.LineBytes != 0:
		return fmt.Errorf("cache %s: size %d not a multiple of line %d", c.Name, c.SizeBytes, c.LineBytes)
	case c.Assoc < 0:
		return fmt.Errorf("cache %s: negative associativity", c.Name)
	case c.Assoc > 0 && c.SizeBytes%(c.LineBytes*int64(c.Assoc)) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by line*assoc", c.Name, c.SizeBytes)
	case c.LatencyCycles <= 0:
		return fmt.Errorf("cache %s: non-positive latency", c.Name)
	case c.BandwidthBytesPerCycle <= 0:
		return fmt.Errorf("cache %s: non-positive bandwidth", c.Name)
	}
	if c.Assoc > 0 {
		sets := c.Sets()
		if sets&(sets-1) != 0 {
			return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
		}
	}
	return nil
}

// Topology identifies the broad interconnect family, used by netsim to pick
// a contention model.
type Topology int

const (
	// TopologyFatTree approximates Quadrics/Federation-class switched fabrics.
	TopologyFatTree Topology = iota
	// TopologyNUMALink approximates SGI's low-latency directory fabrics.
	TopologyNUMALink
	// TopologyClos approximates Myrinet Clos networks.
	TopologyClos
	// TopologyColony approximates the IBM SP Colony switch.
	TopologyColony
)

// String returns the topology name.
func (t Topology) String() string {
	switch t {
	case TopologyFatTree:
		return "fat-tree"
	case TopologyNUMALink:
		return "numalink"
	case TopologyClos:
		return "clos"
	case TopologyColony:
		return "colony"
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// Network describes the interconnect as the LogGP-style parameters netsim
// consumes, plus node-level NIC sharing information.
type Network struct {
	LatencyUs      float64 // end-to-end small-message latency, microseconds
	BandwidthMBs   float64 // per-link large-message bandwidth, MB/s (1e6)
	OverheadUs     float64 // per-message CPU send/recv overhead, microseconds
	NICsPerNode    int     // independent injection ports per node
	Topology       Topology
	ContentionBeta float64 // extra serialization per contending stream [0,1]
}

// Validate reports structural problems in the network description.
func (n Network) Validate() error {
	switch {
	case n.LatencyUs <= 0:
		return errors.New("network: non-positive latency")
	case n.BandwidthMBs <= 0:
		return errors.New("network: non-positive bandwidth")
	case n.OverheadUs < 0:
		return errors.New("network: negative overhead")
	case n.NICsPerNode <= 0:
		return errors.New("network: need at least one NIC per node")
	case n.ContentionBeta < 0 || n.ContentionBeta > 1:
		return errors.New("network: contention beta outside [0,1]")
	}
	return nil
}

// Config is a complete machine description.
type Config struct {
	Name     string
	Vendor   string
	ClockGHz float64

	// FPPerCycle is the peak floating-point results per cycle per processor
	// (e.g. 4 for POWER4's two FMA units).
	FPPerCycle float64
	// FPLatencyCycles is the latency of a dependent FP operation, which
	// bounds dependency-chain-limited loops.
	FPLatencyCycles float64
	// IssueWidth bounds total instructions issued per cycle.
	IssueWidth float64
	// LoadStorePerCycle bounds memory instructions issued per cycle.
	LoadStorePerCycle float64
	// BranchMispredictPenaltyCycles is charged per mispredicted branch.
	BranchMispredictPenaltyCycles float64
	// MaxOutstandingMisses is the memory-level parallelism the core can
	// sustain (MSHRs); it converts miss latency into random-access
	// throughput.
	MaxOutstandingMisses float64
	// PrefetchStreams is how many concurrent strided streams the hardware
	// prefetcher tracks; 0 disables prefetching.
	PrefetchStreams int
	// PrefetchMaxStride is the largest element stride (in cache lines) the
	// prefetcher recognizes.
	PrefetchMaxStride int64

	Caches []CacheLevel

	MemLatencyNs    float64 // load-to-use main memory latency, idle node
	MemBandwidthGBs float64 // per-processor sustainable bandwidth, GB/s (1e9), idle node
	// MemLoadedFraction is the fraction of the idle per-processor memory
	// bandwidth that survives when every core of the node is active.
	// Single-CPU probes (STREAM, GUPS, MAPS) see idle-node numbers;
	// production runs pack the node and see the loaded ones. The gap is
	// machine-specific: an integrated memory controller barely degrades,
	// a 32-way shared fabric degrades a lot.
	MemLoadedFraction float64
	// MemLoadedLatencyFactor scales memory latency under full-node load.
	MemLoadedLatencyFactor float64
	PageBytes              int64   // virtual memory page size
	TLBEntries             int     // data TLB entries; 0 disables TLB modeling
	TLBMissPenaltyNs       float64 // page-walk cost
	CoresPerNode           int
	TotalProcs             int
	MemOverlapFraction     float64 // fraction of FP work that can hide under memory time [0,1]

	Net Network
}

// PeakGFlops returns the peak floating-point rate in GFLOP/s per processor.
func (c *Config) PeakGFlops() float64 { return c.ClockGHz * c.FPPerCycle }

// Validate reports structural problems in the configuration.
func (c *Config) Validate() error {
	switch {
	case strings.TrimSpace(c.Name) == "":
		return errors.New("machine: empty name")
	case c.ClockGHz <= 0:
		return fmt.Errorf("machine %s: non-positive clock", c.Name)
	case c.FPPerCycle <= 0:
		return fmt.Errorf("machine %s: non-positive FP width", c.Name)
	case c.FPLatencyCycles <= 0:
		return fmt.Errorf("machine %s: non-positive FP latency", c.Name)
	case c.IssueWidth <= 0:
		return fmt.Errorf("machine %s: non-positive issue width", c.Name)
	case c.LoadStorePerCycle <= 0:
		return fmt.Errorf("machine %s: non-positive load/store width", c.Name)
	case c.MaxOutstandingMisses <= 0:
		return fmt.Errorf("machine %s: non-positive MLP", c.Name)
	case c.MemLatencyNs <= 0:
		return fmt.Errorf("machine %s: non-positive memory latency", c.Name)
	case c.MemBandwidthGBs <= 0:
		return fmt.Errorf("machine %s: non-positive memory bandwidth", c.Name)
	case c.MemLoadedFraction <= 0 || c.MemLoadedFraction > 1:
		return fmt.Errorf("machine %s: loaded bandwidth fraction %g outside (0,1]", c.Name, c.MemLoadedFraction)
	case c.MemLoadedLatencyFactor < 1:
		return fmt.Errorf("machine %s: loaded latency factor %g below 1", c.Name, c.MemLoadedLatencyFactor)
	case c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0:
		return fmt.Errorf("machine %s: page size %d not a positive power of two", c.Name, c.PageBytes)
	case c.TLBEntries < 0:
		return fmt.Errorf("machine %s: negative TLB entries", c.Name)
	case c.CoresPerNode <= 0:
		return fmt.Errorf("machine %s: non-positive cores per node", c.Name)
	case c.TotalProcs <= 0:
		return fmt.Errorf("machine %s: non-positive processor count", c.Name)
	case c.MemOverlapFraction < 0 || c.MemOverlapFraction > 1:
		return fmt.Errorf("machine %s: overlap fraction outside [0,1]", c.Name)
	case len(c.Caches) == 0:
		return fmt.Errorf("machine %s: no cache levels", c.Name)
	}
	var prev int64
	for i, lvl := range c.Caches {
		if err := lvl.Validate(); err != nil {
			return fmt.Errorf("machine %s: %w", c.Name, err)
		}
		if lvl.SizeBytes <= prev {
			return fmt.Errorf("machine %s: cache level %d (%s) not larger than inner level", c.Name, i, lvl.Name)
		}
		prev = lvl.SizeBytes
	}
	if err := c.Net.Validate(); err != nil {
		return fmt.Errorf("machine %s: %w", c.Name, err)
	}
	return nil
}

// Clone returns a deep copy of the configuration, so presets can be
// modified without aliasing.
func (c *Config) Clone() *Config {
	out := *c
	out.Caches = append([]CacheLevel(nil), c.Caches...)
	return &out
}

// Loaded returns the machine as a fully packed production run sees it:
// per-processor memory bandwidth reduced to the loaded fraction and
// latency stretched by the loaded factor. The loaded view keeps fraction 1
// and factor 1 so applying it twice is harmless.
func (c *Config) Loaded() *Config {
	out := c.Clone()
	out.MemBandwidthGBs *= c.MemLoadedFraction
	out.MemLatencyNs *= c.MemLoadedLatencyFactor
	out.MemLoadedFraction = 1
	out.MemLoadedLatencyFactor = 1
	return out
}

// String returns a one-line summary of the machine.
func (c *Config) String() string {
	return fmt.Sprintf("%s (%.3g GHz, %.3g GF/s peak, %d caches, %s)",
		c.Name, c.ClockGHz, c.PeakGFlops(), len(c.Caches), c.Net.Topology)
}
