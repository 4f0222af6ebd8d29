package access

import (
	"math"
	"testing"
	"testing/quick"
)

func mustGenerate(t *testing.T, spec StreamSpec, n int) []Ref {
	t.Helper()
	refs, err := Generate(spec, n)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return refs
}

func TestGenerateDeterministic(t *testing.T) {
	spec := StreamSpec{
		WorkingSetBytes: 1 << 20,
		Mix:             Mix{Unit: 0.5, Short: 0.3, Random: 0.2},
		Seed:            7,
	}
	a := mustGenerate(t, spec, 10000)
	b := mustGenerate(t, spec, 10000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGenerateSeedChangesRandomComponent(t *testing.T) {
	spec := StreamSpec{WorkingSetBytes: 1 << 22, Mix: Mix{Random: 1}, Seed: 1}
	a := mustGenerate(t, spec, 1000)
	spec.Seed = 2
	b := mustGenerate(t, spec, 1000)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("%d/1000 identical random addresses across seeds", same)
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	bad := []StreamSpec{
		{WorkingSetBytes: 0, Mix: Mix{Unit: 1}},
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 0.5}},                              // doesn't sum to 1
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 2, Random: -1}},                    // negative
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 1}, ShortStrideElems: 1},           // stride 1 is not "short"
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 1}, ShortStrideElems: 99},          // too long
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 1}, StoreFraction: 1.5},            // bad fraction
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 1}, GatherSpread: -2},              // negative spread
		{WorkingSetBytes: -5, Mix: Mix{Unit: 1}},                                  // negative ws
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 0.4, Short: 0.4, Random: 0.4}},     // sums to 1.2
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 1.0000001, Random: -0.0000001}},    // tiny negative
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 1}, GatherSpread: 1e30},            // spread overflows int64
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 1}, GatherSpread: math.Inf(1)},     // infinite spread
		{WorkingSetBytes: 4096, Mix: Mix{Unit: 1}, HotFraction: 0.5, HotBytes: 4}, // hot region below one element
		{WorkingSetBytes: 4096, Mix: Mix{Unit: 1}, HotBytes: 7},                   // ... even when unused
		{WorkingSetBytes: 1024, Mix: Mix{Unit: math.NaN()}},                       // NaN passes every comparison
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 1, Short: math.NaN()}},
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 1, Random: math.NaN()}},
		{WorkingSetBytes: 1024, Mix: Mix{Unit: math.Inf(1), Random: math.Inf(-1)}},
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 1}, StoreFraction: math.NaN()},
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 1}, GatherSpread: math.NaN()},
		{WorkingSetBytes: 1024, Mix: Mix{Unit: 1}, HotFraction: math.NaN()},
	}
	for i, spec := range bad {
		if _, err := Generate(spec, 10); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

func TestPureUnitStreamDetected(t *testing.T) {
	spec := StreamSpec{WorkingSetBytes: 1 << 20, Mix: Mix{Unit: 1}, Seed: 3}
	sum := Analyze(mustGenerate(t, spec, 50000))
	if got := sum.Mix().Unit; got < 0.99 {
		t.Fatalf("unit fraction = %g, want >= 0.99", got)
	}
}

func TestPureShortStrideDetected(t *testing.T) {
	for _, stride := range []int64{2, 4, 8} {
		spec := StreamSpec{
			WorkingSetBytes:  1 << 20,
			Mix:              Mix{Short: 1},
			ShortStrideElems: stride,
			Seed:             3,
		}
		sum := Analyze(mustGenerate(t, spec, 50000))
		if got := sum.Mix().Short; got < 0.99 {
			t.Errorf("stride %d: short fraction = %g, want >= 0.99", stride, got)
		}
	}
}

func TestPureRandomStreamDetected(t *testing.T) {
	spec := StreamSpec{WorkingSetBytes: 64 << 20, Mix: Mix{Random: 1}, Seed: 3}
	sum := Analyze(mustGenerate(t, spec, 50000))
	if got := sum.Mix().Random; got < 0.95 {
		t.Fatalf("random fraction = %g, want >= 0.95", got)
	}
}

func TestMixedStreamRecovered(t *testing.T) {
	want := Mix{Unit: 0.6, Short: 0.25, Random: 0.15}
	spec := StreamSpec{
		WorkingSetBytes:  32 << 20,
		Mix:              want,
		ShortStrideElems: 4,
		Seed:             11,
	}
	got := Analyze(mustGenerate(t, spec, 200000)).Mix()
	const tol = 0.05
	if math.Abs(got.Unit-want.Unit) > tol ||
		math.Abs(got.Short-want.Short) > tol ||
		math.Abs(got.Random-want.Random) > tol {
		t.Fatalf("recovered mix %+v, want %+v (+/- %g)", got, want, tol)
	}
}

func TestStoreFractionRecovered(t *testing.T) {
	spec := StreamSpec{
		WorkingSetBytes: 1 << 20,
		Mix:             Mix{Unit: 1},
		StoreFraction:   0.3,
		Seed:            5,
	}
	sum := Analyze(mustGenerate(t, spec, 100000))
	if math.Abs(sum.StoreFraction-0.3) > 0.02 {
		t.Fatalf("store fraction = %g, want ~0.3", sum.StoreFraction)
	}
}

func TestWorkingSetEstimate(t *testing.T) {
	const ws = 4 << 20
	spec := StreamSpec{WorkingSetBytes: ws, Mix: Mix{Unit: 1}, Seed: 1}
	// Enough references to walk the whole set: ws/ElemBytes plus slack.
	sum := Analyze(mustGenerate(t, spec, ws/ElemBytes+1000))
	if sum.WorkingSetBytes < ws/2 || sum.WorkingSetBytes > 2*ws {
		t.Fatalf("working set estimate %d for true %d", sum.WorkingSetBytes, ws)
	}
}

func TestEmptySummary(t *testing.T) {
	sum := Analyze(nil)
	if sum.Total != 0 {
		t.Fatalf("empty stream total = %d", sum.Total)
	}
	if got := sum.Mix(); got.Unit != 1 {
		t.Fatalf("empty stream mix = %+v, want all-unit", got)
	}
}

func TestClassString(t *testing.T) {
	if ClassUnit.String() != "unit" || ClassShort.String() != "short" ||
		ClassRandom.String() != "random" || Class(9).String() != "class(9)" {
		t.Fatal("Class.String wrong")
	}
}

// Property: detector counts are conserved — every observed reference lands
// in exactly one bin.
func TestQuickDetectorConservation(t *testing.T) {
	f := func(unitQ, shortQ, randQ uint8, seed uint16, nRaw uint16) bool {
		u, s, r := float64(unitQ)+1, float64(shortQ)+1, float64(randQ)+1
		tot := u + s + r
		spec := StreamSpec{
			WorkingSetBytes: 1 << 20,
			Mix:             Mix{Unit: u / tot, Short: s / tot, Random: r / tot},
			Seed:            uint64(seed),
		}
		n := int(nRaw)%5000 + 1
		refs, err := Generate(spec, n)
		if err != nil {
			return false
		}
		sum := Analyze(refs)
		return sum.Total == int64(n) &&
			sum.Counts[0]+sum.Counts[1]+sum.Counts[2] == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the generator realizes the requested mix exactly under its own
// largest-remainder scheduler (class selection is deterministic given the
// mix, independent of the seed).
func TestQuickGeneratorMixExact(t *testing.T) {
	f := func(unitQ, shortQ uint8, seed uint16) bool {
		u, s := float64(unitQ), float64(shortQ)
		r := 10.0
		tot := u + s + r
		mix := Mix{Unit: u / tot, Short: s / tot, Random: r / tot}
		spec := StreamSpec{WorkingSetBytes: 8 << 20, Mix: mix, Seed: uint64(seed)}
		const n = 10000
		refs, err := Generate(spec, n)
		if err != nil {
			return false
		}
		// Count by generator regions rather than the detector: region is
		// encoded in bits 27..28 of the offset from the stream base.
		g, err := newGenerator(spec)
		if err != nil {
			return false
		}
		var counts [3]int
		for _, ref := range refs {
			region := ((ref.Addr - g.base) >> 27) & 3
			if region > 2 {
				return false
			}
			counts[region]++
		}
		for c, frac := range []float64{mix.Unit, mix.Short, mix.Random} {
			if math.Abs(float64(counts[c])/n-frac) > 0.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: working-set estimate never exceeds what n references can touch
// and never exceeds the gather-spread region.
func TestQuickWorkingSetBounded(t *testing.T) {
	f := func(wsKB uint8, seed uint16) bool {
		ws := (int64(wsKB) + 1) * 1024
		spec := StreamSpec{WorkingSetBytes: ws, Mix: Mix{Unit: 0.5, Random: 0.5}, Seed: uint64(seed)}
		const n = 2000
		refs, err := Generate(spec, n)
		if err != nil {
			return false
		}
		sum := Analyze(refs)
		// Each reference can introduce at most one new line.
		if sum.WorkingSetBytes > int64(n)*wsGranularity {
			return false
		}
		return sum.WorkingSetBytes > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamMatchesGenerate(t *testing.T) {
	spec := StreamSpec{
		WorkingSetBytes: 1 << 20,
		Mix:             Mix{Unit: 0.7, Random: 0.3},
		Seed:            9,
	}
	refs := mustGenerate(t, spec, 1000)
	st, err := NewStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range refs {
		if got := st.Next(); got != want {
			t.Fatalf("stream ref %d = %v, want %v", i, got, want)
		}
	}
}

func TestGatherSpreadWidensFootprint(t *testing.T) {
	narrow := StreamSpec{WorkingSetBytes: 1 << 20, Mix: Mix{Random: 1}, Seed: 4}
	wide := narrow
	wide.GatherSpread = 16
	sumNarrow := Analyze(mustGenerate(t, narrow, 20000))
	sumWide := Analyze(mustGenerate(t, wide, 20000))
	if sumWide.WorkingSetBytes <= sumNarrow.WorkingSetBytes {
		t.Fatalf("gather spread did not widen footprint: %d vs %d",
			sumWide.WorkingSetBytes, sumNarrow.WorkingSetBytes)
	}
}

func FuzzNewStream(f *testing.F) {
	// The seed corpus lives in testdata/fuzz/FuzzNewStream: skeleton-like
	// specs and the rejects, among them a sub-element hot region that once
	// passed Validate and then divided by zero on the first hot reference.
	f.Fuzz(func(t *testing.T, ws int64, unit, short, random float64, stride int64,
		store, gather, hot float64, hotBytes int64, seed uint64) {
		spec := StreamSpec{
			WorkingSetBytes: ws, Mix: Mix{Unit: unit, Short: short, Random: random},
			ShortStrideElems: stride, StoreFraction: store, GatherSpread: gather,
			HotFraction: hot, HotBytes: hotBytes, Seed: seed,
		}
		if spec.Validate() != nil {
			return
		}
		st, err := NewStream(spec)
		if err != nil {
			t.Fatalf("Validate accepted %+v, NewStream refused it: %v", spec, err)
		}
		for i := 0; i < 512; i++ {
			st.Next()
		}
	})
}
