package access_test

import (
	"hpcmetrics/internal/access"
)

// refDetector is a frozen copy of the Detector as it was before its line
// set became a paged bitmap and its tracker table a one-scan table: a
// map[uint64]struct{} of lines and separate match and LRU scans. It is
// the exact reference the optimized Detector is checked against; do not
// change it.
type refDetector struct {
	trackers []refTracker
	clock    uint64
	counts   [3]int64
	stores   int64
	total    int64
	lines    map[uint64]struct{}
	gran     int64
}

type refTracker struct {
	lastAddr uint64
	lastUsed uint64
	valid    bool
}

func newRefDetector(n int, granularity int64) *refDetector {
	if n <= 0 {
		n = access.DefaultTrackers
	}
	if granularity <= 0 {
		granularity = 64
	}
	return &refDetector{
		trackers: make([]refTracker, n),
		lines:    make(map[uint64]struct{}),
		gran:     granularity,
	}
}

func (d *refDetector) Observe(ref access.Ref) access.Class {
	d.clock++
	d.total++
	if ref.Store {
		d.stores++
	}
	d.lines[ref.Addr/uint64(d.gran)] = struct{}{}

	const maxDelta = access.MaxShortStride * access.ElemBytes
	class := access.ClassRandom
	matched := -1
	for i := range d.trackers {
		t := &d.trackers[i]
		if !t.valid {
			continue
		}
		delta := int64(ref.Addr) - int64(t.lastAddr)
		if delta < 0 {
			delta = -delta
		}
		if delta > maxDelta {
			continue
		}
		switch {
		case delta <= access.ElemBytes:
			class = access.ClassUnit
		case delta%access.ElemBytes == 0:
			class = access.ClassShort
		default:
			class = access.ClassShort
		}
		matched = i
		break
	}

	if matched >= 0 {
		d.trackers[matched].lastAddr = ref.Addr
		d.trackers[matched].lastUsed = d.clock
	} else {
		lru, lruUsed := 0, ^uint64(0)
		for i := range d.trackers {
			if !d.trackers[i].valid {
				lru = i
				break
			}
			if d.trackers[i].lastUsed < lruUsed {
				lru, lruUsed = i, d.trackers[i].lastUsed
			}
		}
		d.trackers[lru] = refTracker{lastAddr: ref.Addr, lastUsed: d.clock, valid: true}
	}

	d.counts[class]++
	return class
}

func (d *refDetector) Summary() access.Summary {
	var s access.Summary
	s.Total = d.total
	s.Counts = d.counts
	s.WorkingSetBytes = int64(len(d.lines)) * d.gran
	if d.total > 0 {
		s.StoreFraction = float64(d.stores) / float64(d.total)
	}
	return s
}
