package access_test

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/workload"
)

// tracerSample is the tracer's per-block stream length (trace.sampleSize):
// four passes over the working set, within [100k, tracerCeiling]
// references.
func tracerSample(ws int64) int {
	return int(min(max(4*ws/access.ElemBytes, 100_000), tracerCeiling))
}

const tracerCeiling = 4_000_000

// registryApps instantiates every registry test case at its paper
// processor counts and at 1 and 100.
func registryApps(t testing.TB) []*workload.App {
	var out []*workload.App
	for _, tc := range apps.Registry() {
		for _, procs := range append([]int{1, 100}, tc.CPUCounts...) {
			app, err := tc.Instance(procs)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, app)
		}
	}
	return out
}

// defaultBlockSpecs returns the stream of every block of the registry
// test cases at their default processor counts.
func defaultBlockSpecs(t testing.TB) []access.StreamSpec {
	var specs []access.StreamSpec
	for _, tc := range apps.Registry() {
		procs, err := tc.DefaultProcs()
		if err != nil {
			t.Fatal(err)
		}
		app, err := tc.Instance(procs)
		if err != nil {
			t.Fatal(err)
		}
		for _, blk := range app.Blocks {
			specs = append(specs, blk.Stream)
		}
	}
	return specs
}

// matchReference feeds refs to a Detector and to the frozen reference and
// fails on the first reference they class differently or on any
// difference in the final Summary.
func matchReference(t *testing.T, name string, trackers int, gran int64, next func() (access.Ref, bool)) {
	t.Helper()
	d := access.NewDetectorGranularity(trackers, gran)
	ref := newRefDetector(trackers, gran)
	for i := 0; ; i++ {
		r, ok := next()
		if !ok {
			break
		}
		if got, want := d.Observe(r), ref.Observe(r); got != want {
			t.Fatalf("%s: ref %d (%#x) classed %v, reference %v", name, i, r.Addr, got, want)
		}
	}
	if got, want := d.Summary(), ref.Summary(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Summary %+v, reference %+v", name, got, want)
	}
}

// TestDetectorMatchesReference checks the Detector against the frozen
// reference on every registry block's stream, at the study's two
// working-set granularities.
func TestDetectorMatchesReference(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for _, app := range registryApps(t) {
		for _, blk := range app.Blocks {
			for _, gran := range []int64{64, 512} {
				st, err := access.NewStream(blk.Stream)
				if err != nil {
					t.Fatal(err)
				}
				left := min(n, tracerSample(blk.Stream.WorkingSetBytes))
				matchReference(t, workload.CellID(app.ID(), app.Procs)+"/"+blk.Name, 0, gran, func() (access.Ref, bool) {
					left--
					return st.Next(), left >= 0
				})
			}
		}
	}
}

// fuzzGranularities are the line sizes FuzzDetector picks from: the
// defaults for non-positive values, powers of two, and sizes that are not.
var fuzzGranularities = []int64{0, -8, 1, 8, 24, 64, 100, 512, 4096, 1 << 20}

// fuzzMaxRefs caps one FuzzDetector input's stream: a long input of
// bursts would otherwise run for minutes.
const fuzzMaxRefs = 1 << 16

// FuzzDetector decodes bytes into a detector shape and an address/store
// sequence and checks the Detector against the frozen reference. The
// first byte picks the tracker count, the second the granularity; every
// later op byte carries a store bit and moves the address by a byte
// step, an element step, a jump into one of four walker regions, a raw
// 64-bit address, or a burst of scattered references that grows the
// line set by thousands of pages.
func FuzzDetector(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		trackers := int(data[0] % 20)
		gran := fuzzGranularities[int(data[1])%len(fuzzGranularities)]
		data = data[2:]
		take := func(k int) []byte {
			var b [8]byte
			n := copy(b[:k], data)
			data = data[n:]
			return b[:k]
		}
		var addr, burst, state uint64
		var spread uint
		var store bool
		refs := 0
		var next func() (access.Ref, bool)
		next = func() (access.Ref, bool) {
			if refs++; refs > fuzzMaxRefs {
				return access.Ref{}, false
			}
			if burst > 0 {
				burst--
				state += 0x9e3779b97f4a7c15
				z := state * 0xbf58476d1ce4e5b9
				return access.Ref{Addr: addr + (z^z>>31)>>(64-spread), Store: store}, true
			}
			if len(data) == 0 {
				return access.Ref{}, false
			}
			op := take(1)[0]
			store = op&4 != 0
			arg := uint64(op >> 3)
			switch op & 3 {
			case 0:
				addr += uint64(int8(take(1)[0]))
			case 1:
				addr += (arg - 16) * access.ElemBytes
			case 2:
				addr = 1<<40 + (arg&3)<<27 + uint64(binary.LittleEndian.Uint16(take(2)))<<(arg>>2)
			default:
				if arg < 16 {
					addr = binary.LittleEndian.Uint64(take(8))
					break
				}
				burst, state = (arg-15)*256, addr
				spread = uint(take(1)[0]%64) + 1
				refs--
				return next()
			}
			return access.Ref{Addr: addr, Store: store}, true
		}
		matchReference(t, "fuzz", trackers, gran, next)
	})
}

// TestDetectorMemoryBound pins the line set's worst case: on a purely
// random stream over a huge region almost every reference opens a new
// page, and the bitmap must still allocate no more than twice what the
// map-based reference does.
func TestDetectorMemoryBound(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 17
	}
	refs, err := access.Generate(access.StreamSpec{
		WorkingSetBytes: 1 << 30, Mix: access.Mix{Random: 1}, GatherSpread: 1e6, Seed: 3,
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(observe func(access.Ref) access.Class) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range refs {
			observe(r)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, gran := range []int64{64, 512} {
		d := access.NewDetectorGranularity(0, gran)
		ref := newRefDetector(0, gran)
		got, want := allocated(d.Observe), allocated(ref.Observe)
		if d.Summary().WorkingSetBytes != ref.Summary().WorkingSetBytes {
			t.Fatalf("gran %d: working set %d, reference %d", gran, d.Summary().WorkingSetBytes, ref.Summary().WorkingSetBytes)
		}
		t.Logf("gran %d: %d refs allocated %.1f MB, reference %.1f MB", gran, n, float64(got)/1e6, float64(want)/1e6)
		if got > 2*want {
			t.Errorf("gran %d: Detector allocated %d bytes, more than twice the reference's %d", gran, got, want)
		}
	}
}

// BenchmarkDetectorObserve reports the Detector's cost per reference over
// the tracer's streams: every block of the registry test cases at their
// default processor counts, at the tracer's granularity and length. Each
// block's stream is generated outside the timer.
func BenchmarkDetectorObserve(b *testing.B) {
	specs := defaultBlockSpecs(b)
	buf := make([]access.Ref, tracerCeiling)
	var refs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			b.StopTimer()
			st, err := access.NewStream(spec)
			if err != nil {
				b.Fatal(err)
			}
			stream := buf[:tracerSample(spec.WorkingSetBytes)]
			for j := range stream {
				stream[j] = st.Next()
			}
			b.StartTimer()
			d := access.NewDetectorGranularity(0, 512)
			for _, r := range stream {
				d.Observe(r)
			}
			refs += int64(len(stream))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
}
