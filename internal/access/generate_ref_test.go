package access_test

import (
	"math"

	"hpcmetrics/internal/access"
)

// refGenerator is a frozen copy of the stream generator as it was before
// its walkers kept wrapped offsets and its fraction draws became integer
// compares: a remainder per unit, short and hot reference and a float
// draw per fraction. It is the exact reference the optimized generator
// is checked against; do not change it.
type refGenerator struct {
	spec     access.StreamSpec
	state    uint64
	elems    int64
	base     uint64
	unitPos  int64
	shortPos int64
	stride   int64
	spread   int64
	hotElems int64
	hotPos   int64
	errAccum [3]float64
}

// newRefGenerator builds the reference for a spec that Validate accepts.
func newRefGenerator(spec access.StreamSpec) *refGenerator {
	stride := spec.ShortStrideElems
	if stride == 0 {
		stride = 4
	}
	elems := spec.WorkingSetBytes / access.ElemBytes
	spread := int64(float64(elems) * math.Max(spec.GatherSpread, 1))
	if spread < elems {
		spread = elems
	}
	hotBytes := spec.HotBytes
	if hotBytes == 0 {
		hotBytes = 16 << 10
	}
	return &refGenerator{
		spec:     spec,
		state:    spec.Seed + 0x9e3779b97f4a7c15,
		elems:    elems,
		base:     uint64(1)<<40 + (spec.Seed%4096)*(1<<28),
		stride:   stride,
		spread:   spread,
		hotElems: hotBytes / access.ElemBytes,
	}
}

func (g *refGenerator) rand() uint64 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *refGenerator) float64() float64 {
	return float64(g.rand()>>11) / float64(1<<53)
}

func (g *refGenerator) intn(n int64) int64 {
	return int64(g.rand() % uint64(n))
}

func (g *refGenerator) pickClass() access.Class {
	g.errAccum[access.ClassUnit] += g.spec.Mix.Unit
	g.errAccum[access.ClassShort] += g.spec.Mix.Short
	g.errAccum[access.ClassRandom] += g.spec.Mix.Random
	best, bestV := access.ClassUnit, g.errAccum[access.ClassUnit]
	for c := access.ClassShort; c <= access.ClassRandom; c++ {
		if g.errAccum[c] > bestV {
			best, bestV = c, g.errAccum[c]
		}
	}
	g.errAccum[best] -= 1
	return best
}

func (g *refGenerator) Next() access.Ref {
	if g.spec.HotFraction > 0 && g.float64() < g.spec.HotFraction {
		addr := g.base + uint64(3)<<27 + uint64(g.hotPos%g.hotElems)*access.ElemBytes
		g.hotPos++
		return access.Ref{Addr: addr, Store: g.float64() < g.spec.StoreFraction}
	}
	var addr uint64
	switch g.pickClass() {
	case access.ClassUnit:
		addr = g.base + uint64(g.unitPos%g.elems)*access.ElemBytes
		g.unitPos++
	case access.ClassShort:
		addr = g.base + uint64(1)<<27 + uint64(g.shortPos%g.elems)*access.ElemBytes
		g.shortPos += g.stride
	default:
		addr = g.base + uint64(2)<<27 + uint64(g.intn(g.spread))*access.ElemBytes
	}
	return access.Ref{Addr: addr, Store: g.float64() < g.spec.StoreFraction}
}
