package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer. The zero value is ready
// to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() {
	c.Add(1)
}

// Add adds n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; a nil *Counter reads 0.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer level that can move both ways and remembers its
// peak (worker-pool occupancy, queue depth). A nil *Gauge is a no-op.
type Gauge struct {
	mu   sync.Mutex
	v    int64 // guarded by mu
	peak int64 // guarded by mu
}

// Add moves the level by delta. Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.v += delta
	if g.v > g.peak {
		g.peak = g.v
	}
}

// Set forces the level. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.v = v
	if v > g.peak {
		g.peak = v
	}
}

// Value returns the current level; a nil *Gauge reads 0.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Peak returns the highest level seen; a nil *Gauge reads 0.
func (g *Gauge) Peak() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// Histogram buckets durations on a fixed log2 scale: bucket i holds
// observations at or below histMinNs<<i nanoseconds, from 1µs up to
// ~134s, plus one overflow bucket. Fixed bounds keep Observe
// allocation-free and Merge a plain element-wise add.
const (
	histMinNs       = int64(1000)
	histBucketCount = 28
)

// Histogram counts duration observations in log-scale buckets. The zero
// value is ready to use; a nil *Histogram is a no-op.
type Histogram struct {
	buckets [histBucketCount + 1]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

// bucketIndex returns the index of the first bucket whose upper bound
// holds ns, or the overflow index.
func bucketIndex(ns int64) int {
	bound := histMinNs
	for i := 0; i < histBucketCount; i++ {
		if ns <= bound {
			return i
		}
		bound <<= 1
	}
	return histBucketCount
}

// BucketBound returns bucket i's inclusive upper bound in nanoseconds,
// or -1 for the overflow bucket.
func BucketBound(i int) int64 {
	if i < 0 || i >= histBucketCount {
		return -1
	}
	return histMinNs << i
}

// Observe records one duration. Nil-safe and goroutine-safe.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// StartTimer returns the start token for ObserveSince, or the zero time
// when h is nil — instrumented hot paths read no clock while disabled.
func (h *Histogram) StartTimer() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the time elapsed since a StartTimer token.
// Nil-safe; a zero token (disabled timer) records nothing.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil || t0.IsZero() {
		return
	}
	h.Observe(time.Since(t0))
}

// Count returns how many durations were observed; nil reads 0.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// SumNs returns the total of all observed durations in nanoseconds; nil
// reads 0.
func (h *Histogram) SumNs() int64 {
	if h == nil {
		return 0
	}
	return h.sumNs.Load()
}

// Buckets returns a snapshot of the per-bucket counts (last element is
// the overflow bucket); nil reads all zeros.
func (h *Histogram) Buckets() [histBucketCount + 1]int64 {
	var out [histBucketCount + 1]int64
	if h == nil {
		return out
	}
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Registry names and hands out instruments. Get-or-create is the only
// mutation, so instruments can be fetched lazily from hot paths; all
// methods are nil-safe and return nil instruments on a nil receiver.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}
