// Package access generates and analyzes memory-address streams.
//
// It provides the two halves that the study's tracing story is built on:
//
//   - Generators: deterministic, seeded reference streams with a chosen
//     working-set size and stride mixture (unit stride, short non-unit
//     strides up to 8 elements, and random access), standing in for the
//     address streams real application loops emit.
//
//   - Analysis: a stride detector in the spirit of the EMPS detector the
//     paper cites (reference [12]) that classifies an observed stream into
//     stride-1 / short-stride / random bins, and a working-set estimator.
//     The MetaSim-tracer analog classifies generated streams with these
//     tools rather than trusting the generator's own parameters, so
//     classification error survives into the predictions as it does in the
//     real tool chain.
//
// All addresses are byte addresses (uint64).
package access

import (
	"fmt"
	"math"
)

// ElemBytes is the element size assumed throughout the study: 8-byte
// doubles, the dominant datatype of the TI-05 codes.
const ElemBytes = 8

// MaxShortStride is the largest non-unit stride, in elements, that counts
// as "short" (the paper bins strides up to stride-8).
const MaxShortStride = 8

// Class bins a memory reference by its stride behaviour.
type Class int

const (
	// ClassUnit is stride-1 (contiguous) access.
	ClassUnit Class = iota
	// ClassShort is non-unit strides of 2..8 elements.
	ClassShort
	// ClassRandom is everything else.
	ClassRandom
	numClasses
)

// String returns the bin name.
func (c Class) String() string {
	switch c {
	case ClassUnit:
		return "unit"
	case ClassShort:
		return "short"
	case ClassRandom:
		return "random"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Mix is a stride mixture: the fraction of references in each bin. A valid
// Mix is non-negative and sums to 1.
type Mix struct {
	Unit, Short, Random float64
}

// Validate reports whether the mixture is a probability distribution.
func (m Mix) Validate() error {
	if err := finite(m.Unit, m.Short, m.Random); err != nil {
		return err
	}
	if m.Unit < 0 || m.Short < 0 || m.Random < 0 {
		return fmt.Errorf("access: negative mix component %+v", m)
	}
	if s := m.Unit + m.Short + m.Random; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("access: mix sums to %g, want 1", s)
	}
	return nil
}

// finite rejects NaN and ±Inf. Validation must refuse them first: every
// comparison with NaN is false, so a NaN would pass each range check.
func finite(xs ...float64) error {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("access: non-finite parameter %g", x)
		}
	}
	return nil
}

// Ref is a single memory reference.
type Ref struct {
	Addr  uint64
	Store bool
}

// rng is splitmix64: tiny, fast, deterministic across platforms.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed + 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0,n). A non-positive bound panics: it
// is an internal invariant, unreachable from the exported API because
// newGenerator rejects degenerate specs with an error before any draw
// happens (see the spread check there). Keeping the panic — rather than
// threading an error through the per-reference hot path — was a
// deliberate decision of the PR-1 panic audit.
func (r *rng) intn(n int64) int64 {
	if n <= 0 {
		panic("access: intn on non-positive bound")
	}
	return int64(r.next() % uint64(n))
}
