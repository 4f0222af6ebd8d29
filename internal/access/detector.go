package access

import "math"

// Detector classifies an address stream into stride bins the way the
// paper's tracer does: it tracks a small table of recently seen access
// streams and matches each new reference against them by delta. A match at
// one element is stride-1; a match at 2..MaxShortStride elements is a short
// stride; anything that matches no tracked stream is random. The table is
// LRU-managed, so the frequently hit unit/short walkers of a loop stay
// resident while one-off random targets churn through a victim slot, as in
// hardware stream detectors.
//
// The Detector also estimates the stream's working set by counting distinct
// lines at a fixed granularity, and its store fraction. The line set is
// exact: a paged bitmap (see lineSet), so the count equals that of a set
// holding every line number.
type Detector struct {
	// addrs[:live] are the trackers' last addresses in the order the
	// trackers were allocated, and lastUsed[:live] the clock of their last
	// match; a tracker is never emptied once allocated.
	addrs    []uint64
	lastUsed []int64
	live     int
	counts   [numClasses]int64
	stores   int64
	total    int64 // also the clock: each reference ticks it once
	lines    lineSet
	gran     int64
}

// DefaultTrackers is the stream-table size; 16 covers the handful of
// concurrent array walks a scientific loop body sustains.
const DefaultTrackers = 16

// wsGranularity is the line size used for working-set estimation. 64 bytes
// is the smallest line among the study machines, so the estimate is
// conservative for all of them.
const wsGranularity = 64

// NewDetector returns a detector with n stream trackers (DefaultTrackers
// if n <= 0).
func NewDetector(n int) *Detector {
	return NewDetectorGranularity(n, wsGranularity)
}

// NewDetectorGranularity is NewDetector with a chosen working-set counting
// granularity in bytes. Long traces (the tracer observes millions of
// references) use a coarse granularity to bound the line-set memory while
// keeping the estimate within a factor adequate for cache-size comparisons.
func NewDetectorGranularity(n int, granularity int64) *Detector {
	if n <= 0 {
		n = DefaultTrackers
	}
	if granularity <= 0 {
		granularity = wsGranularity
	}
	return &Detector{
		addrs:    make([]uint64, n),
		lastUsed: make([]int64, n),
		lines:    newLineSet(),
		gran:     granularity,
	}
}

// Observe classifies one reference and folds it into the summary,
// returning the class assigned.
func (d *Detector) Observe(ref Ref) Class {
	d.total++
	// Stores arrive at random; a conditional move beats a branch.
	var store int64
	if ref.Store {
		store = 1
	}
	d.stores += store
	d.lines.add(ref.Addr / uint64(d.gran))

	// The first tracker in allocation order within short reach of the
	// reference, either way, matches. Distances wrap at 2^64, so a
	// tracker exactly 1<<63 away, whose signed distance has no positive
	// negation, counts as contiguous. Sub-element misalignment within
	// short reach walks the same lines, so it bins with short strides.
	// The same pass finds the least recently used tracker in case
	// nothing matches.
	const maxDelta = MaxShortStride * ElemBytes
	addrs := d.addrs[:d.live]
	used := d.lastUsed[:len(addrs)]
	victim, oldest := 0, int64(math.MaxInt64)
	for i, last := range addrs {
		diff := ref.Addr - last
		if diff+maxDelta <= 2*maxDelta || diff == 1<<63 {
			addrs[i], used[i] = ref.Addr, d.total
			class := ClassShort
			if diff+ElemBytes <= 2*ElemBytes || diff == 1<<63 {
				// Same element or the adjacent one: contiguous access.
				class = ClassUnit
			}
			d.counts[class]++
			return class
		}
		if u := used[i]; u < oldest {
			victim, oldest = i, u
		}
	}
	// No match: the reference starts a potential stream in the first
	// empty tracker, else in the least recently used one.
	if d.live < len(d.addrs) {
		victim = d.live
		d.live++
	}
	d.addrs[victim], d.lastUsed[victim] = ref.Addr, d.total
	d.counts[ClassRandom]++
	return ClassRandom
}

// lineSet is an exact set of line numbers kept as a paged bitmap: an
// open-addressed, linearly probed table of pages, each one word of
// presence bits for 64 consecutive lines. A walk sets up to 64 bits in
// one page, so a dense stream's table stays small and hot; a stream that
// scatters over a huge region costs one 16-byte slot per line, within
// what a map entry costs. A page is first looked for at its home slot,
// so the pages of a loop's few walkers are found with one multiply and
// one load.
type lineSet struct {
	pages []page // power-of-two length
	shift uint   // 64 - log2(len(pages)): the home slot is the hash's top bits
	used  int    // occupied slots
	n     int64  // distinct lines
}

type page struct {
	tag  uint64 // page number + 1; 0 marks an empty slot
	bits uint64 // bit i: line page<<6 + i is present
}

const linesPerPage = 64

func newLineSet() lineSet {
	const log2Slots = 6
	return lineSet{pages: make([]page, 1<<log2Slots), shift: 64 - log2Slots}
}

// home is the Fibonacci hash of a tag's slot.
func (s *lineSet) home(tag uint64) uint64 { return (tag * 0x9e3779b97f4a7c15) >> s.shift }

// add inserts a line and counts it if it is new.
func (s *lineSet) add(line uint64) {
	tag := line/linesPerPage + 1
	bit := uint64(1) << (line % linesPerPage)
	p := s.slot(tag)
	if p.tag == tag {
		if p.bits&bit != 0 {
			return
		}
		p.bits |= bit
	} else {
		*p = page{tag: tag, bits: bit}
		s.used++
		// Keep the load at most 3/4 so probe runs stay short.
		if 4*s.used > 3*len(s.pages) {
			s.grow()
		}
	}
	s.n++
}

// slot returns the slot holding tag, or the empty slot where it goes.
func (s *lineSet) slot(tag uint64) *page {
	mask := uint64(len(s.pages) - 1)
	i := s.home(tag)
	// The load stays below 1, so the probe meets tag or an empty slot
	// before it has visited every slot.
	for range s.pages {
		if p := &s.pages[i]; p.tag == tag || p.tag == 0 {
			return p
		}
		i = (i + 1) & mask
	}
	panic("access: line set has no empty slot")
}

// grow doubles the table and rehashes every page.
func (s *lineSet) grow() {
	old := s.pages
	s.pages = make([]page, 2*len(old))
	s.shift--
	for _, p := range old {
		if p.tag != 0 {
			*s.slot(p.tag) = p
		}
	}
}

// Summary is the detector's verdict over everything observed so far.
type Summary struct {
	Total           int64
	Counts          [3]int64 // indexed by Class
	WorkingSetBytes int64
	StoreFraction   float64
}

// Mix converts the observed counts into a stride mixture. A summary with
// no references reports an all-unit mix.
func (s Summary) Mix() Mix {
	if s.Total == 0 {
		return Mix{Unit: 1}
	}
	t := float64(s.Total)
	return Mix{
		Unit:   float64(s.Counts[ClassUnit]) / t,
		Short:  float64(s.Counts[ClassShort]) / t,
		Random: float64(s.Counts[ClassRandom]) / t,
	}
}

// Summary returns the accumulated classification.
func (d *Detector) Summary() Summary {
	var s Summary
	s.Total = d.total
	s.Counts = d.counts
	s.WorkingSetBytes = d.lines.n * d.gran
	if d.total > 0 {
		s.StoreFraction = float64(d.stores) / float64(d.total)
	}
	return s
}

// Analyze classifies a whole stream with a default-sized detector.
func Analyze(refs []Ref) Summary {
	d := NewDetector(0)
	for _, r := range refs {
		d.Observe(r)
	}
	return d.Summary()
}
