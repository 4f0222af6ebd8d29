package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/memsim"
	"hpcmetrics/internal/probes"
	"hpcmetrics/internal/simexec"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, unsorted
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			v, ok := percentile(xs, q)
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if ok && beyond < minTail {
				t.Fatalf("n=%d q=%v: reported %v with %d samples beyond it", n, q, v, beyond)
			}
			if !ok && n > 0 && n-int(math.Ceil(q*float64(n))) >= minTail {
				t.Fatalf("n=%d q=%v: refused a percentile with enough samples beyond it", n, q)
			}
		}
	}
	if _, ok := percentile(make([]float64, 999), 0.99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	if _, ok := percentile(make([]float64, 1000), 0.99); !ok {
		t.Error("p99 of 1000 samples has 10 beyond it and must be reported")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
}

func coldPaths(seed uint64) []string {
	var out []string
	for _, round := range coldRounds(seed) {
		for _, c := range round {
			out = append(out, c.path())
		}
	}
	return out
}

func TestColdSequenceSeeded(t *testing.T) {
	a, b, c := coldPaths(7), coldPaths(7), coldPaths(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two cold request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same cold request sequence")
	}
	seen := map[string]bool{}
	for _, p := range a {
		if seen[p] {
			t.Fatalf("cell %s asked twice in one run", p)
		}
		seen[p] = true
	}
	for j, round := range coldRounds(7) {
		var ids []string
		for _, cell := range round {
			ids = append(ids, cell.tc.ID())
		}
		sort.Strings(ids)
		for i := 1; i < len(ids); i++ {
			if ids[i] == ids[i-1] {
				t.Fatalf("round %d asks %s twice", j, ids[i])
			}
		}
	}
}

func TestHotSequenceSeeded(t *testing.T) {
	seq := func(seed uint64, conn int) []int {
		pick := hotPicker(seed, conn, len(hotKeys()))
		out := make([]int, 1000)
		for i := range out {
			out[i] = pick()
		}
		return out
	}
	if !reflect.DeepEqual(seq(3, 0), seq(3, 0)) {
		t.Fatal("the same seed gave two hot request sequences")
	}
	if reflect.DeepEqual(seq(3, 0), seq(4, 0)) {
		t.Fatal("seeds 3 and 4 gave the same hot request sequence")
	}
	if reflect.DeepEqual(seq(3, 0), seq(3, 1)) {
		t.Fatal("both connections send the same sequence")
	}
}

// recordedBody returns a recorded cold response.
func recordedBody(t *testing.T) (string, []byte, []byte) {
	t.Helper()
	sv, err := loadServed(&env{testdata: "testdata"})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(sv.Cold[warmPath])
	if len(want) == 0 {
		t.Fatal("no recorded warm-up response")
	}
	return warmPath, want, append([]byte(nil), want...)
}

func TestCheckersRejectOneFlippedBit(t *testing.T) {
	path, want, body := recordedBody(t)
	if err := checkResponse(path, http.StatusOK, body, want); err != nil {
		t.Fatalf("recorded body rejected: %v", err)
	}
	for i := range body {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), body...)
			flipped[i] ^= 1 << bit
			if checkResponse(path, http.StatusOK, flipped, want) == nil {
				t.Fatalf("cold checker accepted bit %d of byte %d (%q) flipped", bit, i, body[i])
			}
			if checkHot(path, http.StatusOK, flipped, body) == nil {
				t.Fatalf("hot checker accepted bit %d of byte %d flipped", bit, i)
			}
		}
	}
}

func TestNon200CountsAsFailed(t *testing.T) {
	path, want, body := recordedBody(t)
	for _, status := range []int{http.StatusTooManyRequests, http.StatusInternalServerError} {
		if checkResponse(path, status, body, want) == nil {
			t.Errorf("cold checker accepted status %d", status)
		}
		if checkHot(path, status, body, body) == nil {
			t.Errorf("hot checker accepted status %d", status)
		}
	}

	// Through the hot closed loop: a server that sheds every request.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		_, err := w.Write(body)
		if err != nil {
			t.Error(err)
		}
	}))
	defer ts.Close()
	keys := hotKeys()
	bodies := make([][]byte, len(keys))
	for i := range bodies {
		bodies[i] = body
	}
	var tl tally
	e := &env{seed: 1, seconds: 100 * time.Millisecond}
	if _, _, err := hotPhase(context.Background(), e, &server{url: ts.URL}, keys, bodies, &tl, nil, false); err != nil {
		t.Fatal(err)
	}
	if tl.attempted == 0 || tl.failed != tl.attempted {
		t.Fatalf("shed responses: %d attempted, %d failed", tl.attempted, tl.failed)
	}
}

// TestMetricNamesMatchBenchmark keeps BENCHMARK.json and the metrics a
// run prints in step.
func TestMetricNamesMatchBenchmark(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricName) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the driver prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the driver prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestProbeReplayMatchesMeasure proves the traced probe replay does the
// work of the real probe suite.
func TestProbeReplayMatchesMeasure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a probe suite twice")
	}
	cfg := machine.MustPreset(machine.ARLXeon)
	want, err := probes.Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := newReplayer(&env{}, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rp.probeSuite(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed probes differ:\n got %+v\nwant %+v", got, want)
	}
}

// TestKernelMatchesSimulateStream proves the kernel replay simulates what
// memsim.SimulateStream does, reference for reference.
func TestKernelMatchesSimulateStream(t *testing.T) {
	cfg := machine.MustPreset(machine.ARLAltix)
	spec := access.StreamSpec{WorkingSetBytes: 3 << 20, Mix: access.Mix{Unit: 0.6, Short: 0.2, Random: 0.2},
		ShortStrideElems: 4, StoreFraction: 0.3, Seed: 11}
	want, err := memsim.SimulateStream(cfg.Loaded(), spec, simexec.SampleSize(spec), memsim.TimingOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := newReplayer(&env{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.kernel(0, "k", "blocks", spec, []*machine.Config{cfg}, true); err != nil {
		t.Fatal(err)
	}
	got := rp.seen["memsim|k|"+cfg.Name]
	if got.Refs != want.Stats.Refs || got.Misses != want.Stats.ServedBy[len(want.Stats.ServedBy)-1] {
		t.Fatalf("kernel replay simulated %+v, SimulateStream refs %d misses %d",
			got, want.Stats.Refs, want.Stats.ServedBy[len(want.Stats.ServedBy)-1])
	}
}
