package analysis

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var lintBaseline = flag.String("lint-baseline", "",
	"baseline report holding hpclint_seconds; TestHpclintModuleBudget fails a module pass slower than 2x it (empty skips the test)")

// BenchmarkHpclintModule times one whole-module analysis pass — pattern
// expansion, dependency-ordered loading, type-checking, every analyzer,
// and cross-package fact propagation — the same work `make lint` gates
// CI on. The interface-devirtualization phase (implementor collection
// plus merged-fact resolution) is reported as its own metric so its
// overhead is visible separately from the load/analyze cost it rides
// on. TestHpclintModuleBudget times the same pass against the
// committed BENCH_baseline.json.
func BenchmarkHpclintModule(b *testing.B) {
	root := filepath.Join("..", "..")
	var ifaceSec float64
	for i := 0; i < b.N; i++ {
		res, err := Run([]string{root + "/..."}, All())
		if err != nil {
			b.Fatal(err)
		}
		if res.Packages == 0 {
			b.Fatal("no packages analyzed")
		}
		ifaceSec += res.IfaceSeconds
	}
	b.ReportMetric(ifaceSec/float64(b.N), "iface-sec/op")
}

// TestHpclintModuleBudget is the analyzer-cost gate: one module-wide
// pass, timed by wall clock, fails when it takes more than twice the
// hpclint_seconds recorded in the -lint-baseline report, so analyzer
// cost (devirtualization included) cannot silently balloon. It skips
// without -lint-baseline, so contended `go test ./...` and race runs
// never time it; `make lint-budget` runs it alone.
func TestHpclintModuleBudget(t *testing.T) {
	if *lintBaseline == "" {
		t.Skip("no -lint-baseline report given")
	}
	buf, err := os.ReadFile(*lintBaseline)
	if err != nil {
		t.Fatalf("reading -lint-baseline: %v", err)
	}
	var base struct {
		HpclintSeconds float64 `json:"hpclint_seconds"`
	}
	if err := json.Unmarshal(buf, &base); err != nil {
		t.Fatalf("%s: %v", *lintBaseline, err)
	}
	if base.HpclintSeconds <= 0 {
		t.Fatalf("%s: no hpclint_seconds recorded", *lintBaseline)
	}

	start := time.Now()
	res, err := Run([]string{filepath.Join("..", "..") + "/..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start).Seconds()
	if took > 2*base.HpclintSeconds {
		t.Fatalf("hpclint module pass took %.2fs, over the 2x budget against the %.2fs baseline in %s",
			took, base.HpclintSeconds, *lintBaseline)
	}
	t.Logf("hpclint budget ok: %.2fs (%d packages) within 2x of the %.2fs baseline", took, res.Packages, base.HpclintSeconds)
}
