package access_test

import (
	"testing"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/workload"
)

// matchGenerator draws n references from a Stream and from the frozen
// reference generator and fails on the first one they differ in.
func matchGenerator(t *testing.T, name string, spec access.StreamSpec, n int) {
	t.Helper()
	st, err := access.NewStream(spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref := newRefGenerator(spec)
	for i := 0; i < n; i++ {
		if got, want := st.Next(), ref.Next(); got != want {
			t.Fatalf("%s: ref %d is %+v, reference %+v", name, i, got, want)
		}
	}
}

// TestGeneratorMatchesReference checks the generator against the frozen
// reference on every registry block's stream.
func TestGeneratorMatchesReference(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for _, app := range registryApps(t) {
		for _, blk := range app.Blocks {
			matchGenerator(t, workload.CellID(app.ID(), app.Procs)+"/"+blk.Name, blk.Stream, n)
		}
	}
}

func FuzzNewStream(f *testing.F) {
	// The seed corpus lives in testdata/fuzz/FuzzNewStream: skeleton-like
	// specs, walkers that wrap a three-element working set, and the rejects,
	// among them a sub-element hot region that once passed Validate and
	// then divided by zero on the first hot reference.
	f.Fuzz(func(t *testing.T, ws int64, unit, short, random float64, stride int64,
		store, gather, hot float64, hotBytes int64, seed uint64) {
		spec := access.StreamSpec{
			WorkingSetBytes: ws, Mix: access.Mix{Unit: unit, Short: short, Random: random},
			ShortStrideElems: stride, StoreFraction: store, GatherSpread: gather,
			HotFraction: hot, HotBytes: hotBytes, Seed: seed,
		}
		if spec.Validate() != nil {
			return
		}
		matchGenerator(t, "fuzz", spec, 512)
	})
}

// generateSink keeps BenchmarkGenerate's checksums live.
var generateSink uint64

// BenchmarkGenerate reports the generator's cost per reference over the
// tracer's streams (see BenchmarkDetectorObserve), for the generator and
// for the frozen reference on the same host. Each stream is folded into a
// checksum as it is drawn, so no reference is stored.
func BenchmarkGenerate(b *testing.B) {
	specs := defaultBlockSpecs(b)
	run := func(b *testing.B, fold func(spec access.StreamSpec, n int) uint64) {
		var refs int64
		for i := 0; i < b.N; i++ {
			for _, spec := range specs {
				n := tracerSample(spec.WorkingSetBytes)
				generateSink ^= fold(spec, n)
				refs += int64(n)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
	}
	b.Run("stream", func(b *testing.B) {
		run(b, func(spec access.StreamSpec, n int) uint64 {
			st, err := access.NewStream(spec)
			if err != nil {
				b.Fatal(err)
			}
			var sum uint64
			for j := 0; j < n; j++ {
				r := st.Next()
				sum += r.Addr
				if r.Store {
					sum++
				}
			}
			return sum
		})
	})
	b.Run("reference", func(b *testing.B) {
		run(b, func(spec access.StreamSpec, n int) uint64 {
			g := newRefGenerator(spec)
			var sum uint64
			for j := 0; j < n; j++ {
				r := g.Next()
				sum += r.Addr
				if r.Store {
					sum++
				}
			}
			return sum
		})
	})
}
