package cpusim

import (
	"math"
	"testing"
	"testing/quick"

	"hpcmetrics/internal/machine"
)

func TestThroughputBound(t *testing.T) {
	cfg := machine.MustPreset(machine.NAVO655) // 4 flops/cycle, issue 5
	w := Work{Flops: 8, IntOps: 1, MemOps: 1}
	res, err := Time(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// FP bound: 8/4 = 2 cycles; issue bound: 10/5 = 2; dependency 0.
	if math.Abs(res.Cycles-2) > 1e-12 {
		t.Fatalf("cycles = %g, want 2", res.Cycles)
	}
	if res.ILPLimited {
		t.Fatal("parallel block flagged ILP-limited")
	}
}

func TestDependencyBound(t *testing.T) {
	cfg := machine.MustPreset(machine.NAVO655) // FP latency 6
	w := Work{Flops: 4, FPChainLen: 4}
	res, err := Time(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// Dependency: 4 * 6 = 24 cycles; throughput: 1 cycle.
	if math.Abs(res.Cycles-24) > 1e-12 {
		t.Fatalf("cycles = %g, want 24", res.Cycles)
	}
	if !res.ILPLimited {
		t.Fatal("serial chain not flagged ILP-limited")
	}
}

func TestBranchPenaltyAdds(t *testing.T) {
	cfg := machine.MustPreset(machine.ARLXeon) // 20-cycle penalty
	base := Work{Flops: 10}
	branchy := Work{Flops: 10, Branches: 2, MispredictRate: 0.5}
	r0, err := Time(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Time(cfg, branchy)
	if err != nil {
		t.Fatal(err)
	}
	wantExtra := 2 * 0.5 * 20.0
	// The branches also consume issue slots, so allow the issue-bound
	// delta on top of the misprediction penalty.
	if r1.Cycles < r0.Cycles+wantExtra {
		t.Fatalf("branch penalty missing: %g vs %g+%g", r1.Cycles, r0.Cycles, wantExtra)
	}
	if r1.BranchCycles != wantExtra {
		t.Fatalf("BranchCycles = %g, want %g", r1.BranchCycles, wantExtra)
	}
}

func TestFlopRatePeaksForParallelBlock(t *testing.T) {
	for _, name := range machine.Names() {
		cfg := machine.MustPreset(name)
		// Pure FP block with no dependencies and little issue overhead
		// should approach the machine peak.
		res, err := Time(cfg, Work{Flops: 100})
		if err != nil {
			t.Fatal(err)
		}
		rate := 100 / res.Cycles * cfg.ClockGHz * 1e9
		peak := cfg.PeakGFlops() * 1e9
		if rate > peak*1.0001 {
			t.Errorf("%s: rate %g exceeds peak %g", name, rate, peak)
		}
		if rate < peak*0.5 {
			t.Errorf("%s: pure FP block rate %g far below peak %g", name, rate, peak)
		}
	}
}

func TestOverlap(t *testing.T) {
	cases := []struct{ a, b, fraction, want float64 }{
		{3, 1, 0, 4},      // nothing hides: the sum
		{3, 1, 1, 3},      // everything hides: the longer
		{1, 3, 1, 3},      // the operand order does not matter
		{2, 4, 0.25, 5.5}, // the longer plus 3/4 of the shorter
		{0, 0, 0.5, 0},
	}
	for _, c := range cases {
		if got := Overlap(c.a, c.b, c.fraction); got != c.want {
			t.Errorf("Overlap(%g, %g, %g) = %g, want %g", c.a, c.b, c.fraction, got, c.want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Work{
		{Flops: -1},
		{IntOps: -1},
		{MemOps: -1},
		{Branches: -1},
		{Branches: 1, MispredictRate: 2},
		{FPChainLen: -1},
		{Flops: 2, FPChainLen: 3}, // chain longer than total FP work
	}
	cfg := machine.MustPreset(machine.ARLOpteron)
	for i, w := range bad {
		if _, err := Time(cfg, w); err == nil {
			t.Errorf("work %d accepted: %+v", i, w)
		}
	}
}

func TestSecondsConversion(t *testing.T) {
	cfg := machine.MustPreset(machine.ASCSC45) // 1 GHz
	res := Result{Cycles: 1e9}
	if got := res.Seconds(cfg); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("1e9 cycles at 1 GHz = %g s, want 1", got)
	}
}

// Property: time is monotone in every operation count.
func TestQuickMonotoneInWork(t *testing.T) {
	cfg := machine.MustPreset(machine.MHPCC690)
	f := func(flops, ints, mems, chain uint8) bool {
		w := Work{
			Flops:      float64(flops) + float64(chain), // keep chain <= flops
			IntOps:     float64(ints),
			MemOps:     float64(mems),
			FPChainLen: float64(chain),
		}
		r1, err := Time(cfg, w)
		if err != nil {
			return false
		}
		w2 := w
		w2.Flops += 1
		w2.IntOps += 1
		r2, err := Time(cfg, w2)
		if err != nil {
			return false
		}
		return r2.Cycles >= r1.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cycles are never below either individual bound.
func TestQuickCyclesDominateBounds(t *testing.T) {
	cfg := machine.MustPreset(machine.ARLAltix)
	f := func(flops, chain, branches uint8) bool {
		fl := float64(flops) + 1
		ch := math.Min(float64(chain), fl)
		w := Work{Flops: fl, FPChainLen: ch, Branches: float64(branches), MispredictRate: 0.1}
		r, err := Time(cfg, w)
		if err != nil {
			return false
		}
		return r.Cycles >= r.ThroughputCycles && r.Cycles >= r.DependencyCycles &&
			r.Cycles >= r.BranchCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
