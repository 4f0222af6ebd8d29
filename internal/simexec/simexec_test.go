package simexec

import (
	"context"
	"errors"
	"testing"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/cpusim"
	"hpcmetrics/internal/faults"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/netsim"
	"hpcmetrics/internal/workload"
)

func testApp(procs int) *workload.App {
	return &workload.App{
		Name: "exec", Case: "test", Procs: procs, RuntimeImbalance: 1.1,
		Blocks: []workload.Block{
			{
				Name: "compute",
				Work: cpusim.Work{Flops: 40, IntOps: 8, MemOps: 12, FPChainLen: 3},
				Stream: access.StreamSpec{
					WorkingSetBytes: 4 << 20,
					Mix:             access.Mix{Unit: 0.8, Random: 0.2},
					Seed:            11,
				},
				Iters: 5000,
			},
			{
				Name: "solve",
				Work: cpusim.Work{Flops: 24, IntOps: 4, MemOps: 8, FPChainLen: 12},
				Stream: access.StreamSpec{
					WorkingSetBytes: 512 << 10,
					Mix:             access.Mix{Unit: 1},
					Seed:            12,
				},
				Iters:           4000,
				DependentMemory: true,
			},
		},
		Comm: []netsim.Event{
			{Op: netsim.OpPointToPoint, Bytes: 8192, Count: 100},
			{Op: netsim.OpAllReduce, Bytes: 8, Count: 50},
		},
	}
}

func TestExecuteBasics(t *testing.T) {
	res, err := Execute(machine.MustPreset(machine.NAVO655), testApp(16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.ComputeSeconds <= 0 || res.CommSeconds <= 0 {
		t.Fatalf("non-positive times: %+v", res)
	}
	if len(res.Blocks) != 2 {
		t.Fatalf("%d block results", len(res.Blocks))
	}
	// Imbalance must inflate the total.
	want := (res.ComputeSeconds + res.CommSeconds) * 1.1
	if diff := res.Seconds - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("imbalance not applied: %g vs %g", res.Seconds, want)
	}
}

func TestExecuteTooLarge(t *testing.T) {
	cfg := machine.MustPreset(machine.ARL690) // 128 procs
	_, err := Execute(cfg, testApp(256))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestFaultBurstsArePerProcs: the fault identity names the processor
// count, so a test case's cells keep separate burst counters. Sharing
// one would let concurrent cells race for a burst's hits, and a chaos
// run's faults would depend on scheduling.
func TestFaultBurstsArePerProcs(t *testing.T) {
	cfg := machine.MustPreset(machine.NAVO655)
	in := faults.New(1, faults.Rule{Point: faults.PointExecBlock, Kind: faults.Transient, Rate: 1, Burst: 2})
	ctx := in.Inject(context.Background())
	for i := 0; i < 2; i++ {
		if _, err := ExecuteContext(ctx, cfg, testApp(32)); !errors.Is(err, faults.ErrTransient) {
			t.Fatalf("run %d at 32 procs: err = %v, want ErrTransient", i+1, err)
		}
	}
	if _, err := ExecuteContext(ctx, cfg, testApp(64)); !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("first run at 64 procs: err = %v, want ErrTransient (its own burst)", err)
	}
}

func TestExecuteRejectsInvalid(t *testing.T) {
	app := testApp(8)
	app.Blocks[0].Iters = -1
	if _, err := Execute(machine.Base(), app); err == nil {
		t.Fatal("accepted invalid app")
	}
	bad := machine.Base()
	bad.Caches = nil
	if _, err := Execute(bad, testApp(8)); err == nil {
		t.Fatal("accepted invalid machine")
	}
}

func TestExecuteDeterministic(t *testing.T) {
	cfg := machine.MustPreset(machine.ARLXeon)
	a, err := Execute(cfg, testApp(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(cfg, testApp(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds {
		t.Fatalf("non-deterministic: %g vs %g", a.Seconds, b.Seconds)
	}
}

func TestDependentBlockSlowerThanEquivalentFree(t *testing.T) {
	cfg := machine.MustPreset(machine.ARLOpteron)
	app := testApp(8)
	dep, err := Execute(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	app2 := testApp(8)
	app2.Blocks[1].DependentMemory = false
	app2.Blocks[1].Work.FPChainLen = 0
	free, err := Execute(cfg, app2)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Blocks[1].Seconds <= free.Blocks[1].Seconds {
		t.Fatalf("dependent block %g not slower than free %g",
			dep.Blocks[1].Seconds, free.Blocks[1].Seconds)
	}
}

func TestFasterMachineFasterRun(t *testing.T) {
	app := testApp(16)
	slow, err := Execute(machine.MustPreset(machine.MHPCCPower3), app)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Execute(machine.MustPreset(machine.ARLOpteron), app)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Seconds >= slow.Seconds {
		t.Fatalf("Opteron %g not faster than P3 %g", fast.Seconds, slow.Seconds)
	}
}

func TestLoadedMemorySlowsRuns(t *testing.T) {
	cfg := machine.MustPreset(machine.ARLAltix)
	loadedRun, err := Execute(cfg, testApp(8))
	if err != nil {
		t.Fatal(err)
	}
	ideal := cfg.Clone()
	ideal.MemLoadedFraction = 1
	ideal.MemLoadedLatencyFactor = 1
	idealRun, err := Execute(ideal, testApp(8))
	if err != nil {
		t.Fatal(err)
	}
	if loadedRun.Seconds <= idealRun.Seconds {
		t.Fatalf("loaded run %g not slower than idle-memory run %g",
			loadedRun.Seconds, idealRun.Seconds)
	}
}

func TestMoreRanksMoreCommTime(t *testing.T) {
	cfg := machine.MustPreset(machine.NAVO655)
	small, err := Execute(cfg, testApp(16))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Execute(cfg, testApp(256))
	if err != nil {
		t.Fatal(err)
	}
	if big.CommSeconds <= small.CommSeconds {
		t.Fatalf("allreduce time did not grow with ranks: %g vs %g",
			big.CommSeconds, small.CommSeconds)
	}
}

func TestSampleSizePolicy(t *testing.T) {
	unitSpec := func(ws int64) access.StreamSpec {
		return access.StreamSpec{WorkingSetBytes: ws, Mix: access.Mix{Unit: 1}}
	}
	if got := SampleSize(unitSpec(1 << 10)); got != 60_000 {
		t.Errorf("floor = %d", got)
	}
	if got := SampleSize(unitSpec(8 << 20)); got != 1_500_000 {
		t.Errorf("ceiling = %d", got)
	}
	if got := SampleSize(unitSpec(1 << 30)); got != 400_000 {
		t.Errorf("huge = %d", got)
	}
	randomSpec := access.StreamSpec{WorkingSetBytes: 1 << 30, Mix: access.Mix{Random: 1}}
	if got := SampleSize(randomSpec); got != 500_000 {
		t.Errorf("random = %d", got)
	}
}

func TestObservedOrderingMatchesPaperExtremes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a study workload on three machines")
	}
	// The paper's appendix shows the Opteron fastest and the P3s/O3800
	// slowest on nearly every test case; the simulated testbed must
	// preserve that.
	tc, err := apps.Lookup("avus", "standard")
	if err != nil {
		t.Fatal(err)
	}
	app, err := tc.Instance(64)
	if err != nil {
		t.Fatal(err)
	}
	opteron, err := Execute(machine.MustPreset(machine.ARLOpteron), app)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := Execute(machine.MustPreset(machine.MHPCCPower3), app)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Execute(machine.Base(), app)
	if err != nil {
		t.Fatal(err)
	}
	if !(opteron.Seconds < base.Seconds && base.Seconds < p3.Seconds) {
		t.Fatalf("ordering violated: opteron %.0f, base %.0f, p3 %.0f",
			opteron.Seconds, base.Seconds, p3.Seconds)
	}
}
