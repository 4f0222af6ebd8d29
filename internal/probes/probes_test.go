package probes

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/faults"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/memsim"
	"hpcmetrics/internal/simexec"
)

func TestCurveAt(t *testing.T) {
	c := Curve{
		SizesBytes: []int64{1024, 4096, 16384},
		RefsPerSec: []float64{100, 50, 10},
	}
	if got := c.At(512); got != 100 {
		t.Errorf("below range = %g, want clamp to 100", got)
	}
	if got := c.At(1 << 20); got != 10 {
		t.Errorf("above range = %g, want clamp to 10", got)
	}
	if got := c.At(4096); got != 50 {
		t.Errorf("exact point = %g, want 50", got)
	}
	// Log-interpolated midpoint between 1024 and 4096 is 2048.
	if got := c.At(2048); math.Abs(got-75) > 1e-9 {
		t.Errorf("midpoint = %g, want 75", got)
	}
	var empty Curve
	if got := empty.At(100); got != 0 {
		t.Errorf("empty curve = %g", got)
	}
}

func TestCurveValidate(t *testing.T) {
	good := Curve{SizesBytes: []int64{1, 2}, RefsPerSec: []float64{1, 2}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Curve{
		{SizesBytes: []int64{1}, RefsPerSec: []float64{1, 2}},    // length mismatch
		{SizesBytes: []int64{2, 1}, RefsPerSec: []float64{1, 2}}, // not ascending
		{SizesBytes: []int64{1, 2}, RefsPerSec: []float64{1, 0}}, // non-positive rate
		{SizesBytes: []int64{1, 1}, RefsPerSec: []float64{1, 2}}, // duplicate size
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad curve %d accepted", i)
		}
	}
}

func TestHPLBelowPeakAboveHalf(t *testing.T) {
	for _, name := range machine.Names() {
		cfg := machine.MustPreset(name)
		rate, err := HPL(cfg)
		if err != nil {
			t.Fatal(err)
		}
		peak := cfg.PeakGFlops() * 1e9
		if rate > peak {
			t.Errorf("%s: HPL %g exceeds peak %g", name, rate, peak)
		}
		if rate < 0.4*peak {
			t.Errorf("%s: HPL %g below 40%% of peak %g", name, rate, peak)
		}
	}
}

func TestSTREAMBelowSpecBandwidth(t *testing.T) {
	for _, name := range machine.Names() {
		cfg := machine.MustPreset(name)
		bw, err := STREAM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bw <= 0 || bw > cfg.MemBandwidthGBs*1e9 {
			t.Errorf("%s: STREAM %g outside (0, %g]", name, bw, cfg.MemBandwidthGBs*1e9)
		}
	}
}

func TestGUPSWellBelowSTREAMRefRate(t *testing.T) {
	cfg := machine.MustPreset(machine.NAVO655)
	gups, err := GUPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := STREAM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gups >= stream/8 {
		t.Fatalf("GUPS %g not below STREAM ref rate %g", gups, stream/8)
	}
}

func TestMAPSMonotoneDecreasing(t *testing.T) {
	// Bandwidth can only fall (or hold) as the working set grows through
	// the cache levels.
	cfg := machine.MustPreset(machine.ARLAltix)
	for _, kind := range []MAPSKind{MAPSUnitStride, MAPSRandomStride} {
		curve, err := MAPS(cfg, kind, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(curve.RefsPerSec); i++ {
			// Allow 10% measurement wiggle between adjacent points.
			if curve.RefsPerSec[i] > curve.RefsPerSec[i-1]*1.10 {
				t.Errorf("kind %d: rate rose from %g to %g at size %d",
					kind, curve.RefsPerSec[i-1], curve.RefsPerSec[i], curve.SizesBytes[i])
			}
		}
	}
}

func TestMAPSEndpointsAgreeWithSTREAMAndGUPS(t *testing.T) {
	// The paper: "the lower right-hand portion of each unit-stride MAPS
	// curve corresponds to the STREAM score" (and random/GUPS likewise).
	cfg := machine.MustPreset(machine.ARLOpteron)
	unit, err := MAPS(cfg, MAPSUnitStride, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := STREAM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := unit.RefsPerSec[len(unit.RefsPerSec)-1] * 8
	if ratio := last / stream; ratio < 0.6 || ratio > 1.6 {
		t.Errorf("MAPS tail %g vs STREAM %g (ratio %g)", last, stream, ratio)
	}

	random, err := MAPS(cfg, MAPSRandomStride, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	gups, err := GUPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lastR := random.RefsPerSec[len(random.RefsPerSec)-1]
	if ratio := lastR / gups; ratio < 0.4 || ratio > 2.5 {
		t.Errorf("random MAPS tail %g vs GUPS %g (ratio %g)", lastR, gups, ratio)
	}
}

func TestEnhancedMAPSSlower(t *testing.T) {
	cfg := machine.MustPreset(machine.NAVO655)
	std, err := MAPS(cfg, MAPSUnitStride, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := MAPS(cfg, MAPSUnitStride, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range std.RefsPerSec {
		if dep.RefsPerSec[i] >= std.RefsPerSec[i] {
			t.Errorf("dependency curve not slower at size %d: %g vs %g",
				std.SizesBytes[i], dep.RefsPerSec[i], std.RefsPerSec[i])
		}
	}
}

func TestMAPSRejectsUnknownKind(t *testing.T) {
	if _, err := MAPS(machine.Base(), MAPSKind(99), []int64{8192}, false); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestNetbench(t *testing.T) {
	cfg := machine.MustPreset(machine.ARLAltix)
	nr, err := Netbench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nr.LatencySeconds <= 0 || nr.BandwidthBytesPerSec <= 0 || nr.AllReduce8At64 <= 0 {
		t.Fatalf("degenerate netbench: %+v", nr)
	}
	// The measured ping-pong bandwidth cannot exceed the link speed.
	if nr.BandwidthBytesPerSec > cfg.Net.BandwidthMBs*1e6*1.01 {
		t.Fatalf("bandwidth %g exceeds link %g", nr.BandwidthBytesPerSec, cfg.Net.BandwidthMBs*1e6)
	}
}

func TestMeasureComplete(t *testing.T) {
	pr, err := Measure(machine.MustPreset(machine.ASCSC45))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Machine != machine.ASCSC45 {
		t.Errorf("machine name %q", pr.Machine)
	}
	if pr.HPLFlopsPerSec <= 0 || pr.StreamBytesPerSec <= 0 || pr.GUPSRefsPerSec <= 0 {
		t.Fatal("missing scalar probes")
	}
	for _, c := range []Curve{pr.MAPSUnit, pr.MAPSRandom, pr.DepUnit, pr.DepRandom} {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(c.SizesBytes) != len(MAPSSizes) {
			t.Fatalf("curve has %d points, want %d", len(c.SizesBytes), len(MAPSSizes))
		}
	}
	if pr.OverlapFraction <= 0 {
		t.Fatal("missing overlap fraction")
	}
	if pr.StreamRefsPerSec() != pr.StreamBytesPerSec/8 {
		t.Fatal("StreamRefsPerSec conversion wrong")
	}
}

func TestMeasureRejectsInvalidMachine(t *testing.T) {
	cfg := machine.Base()
	cfg.TotalProcs = 0
	if _, err := Measure(cfg); err == nil {
		t.Fatal("accepted invalid machine")
	}
}

func TestProbesDeterministic(t *testing.T) {
	cfg := machine.MustPreset(machine.ARLXeon)
	a, err := STREAM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := STREAM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("STREAM not deterministic: %g vs %g", a, b)
	}
}

// Property: curve interpolation stays within the bracketing values.
func TestQuickCurveInterpolationBounded(t *testing.T) {
	c := Curve{
		SizesBytes: []int64{1 << 10, 1 << 14, 1 << 18, 1 << 22},
		RefsPerSec: []float64{400, 150, 40, 12},
	}
	f := func(wsRaw uint32) bool {
		ws := int64(wsRaw)%(1<<23) + 1
		v := c.At(ws)
		return v >= 12 && v <= 400
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps MAPS on three machines")
	}
	// Paper Figure 1's qualitative content: the p655 leads from L1, and
	// the Opteron leads from main memory.
	p655, err := MAPS(machine.MustPreset(machine.NAVO655), MAPSUnitStride, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	altix, err := MAPS(machine.MustPreset(machine.ARLAltix), MAPSUnitStride, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	opteron, err := MAPS(machine.MustPreset(machine.ARLOpteron), MAPSUnitStride, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	first, last := 0, len(MAPSSizes)-1
	if !(p655.RefsPerSec[first] > altix.RefsPerSec[first]) {
		t.Errorf("p655 L1 rate %g not above Altix %g", p655.RefsPerSec[first], altix.RefsPerSec[first])
	}
	if !(opteron.RefsPerSec[last] > p655.RefsPerSec[last] &&
		opteron.RefsPerSec[last] > altix.RefsPerSec[last]) {
		t.Errorf("Opteron memory rate %g not best (p655 %g, altix %g)",
			opteron.RefsPerSec[last], p655.RefsPerSec[last], altix.RefsPerSec[last])
	}
}

// referenceMAPSPoint prices one MAPS point the way the probes did before
// MAPS and ENHANCED MAPS shared a sweep: a separate simulation per
// variant, priced once.
func referenceMAPSPoint(cfg *machine.Config, kind MAPSKind, ws int64, dependent bool) (float64, error) {
	spec := access.StreamSpec{
		WorkingSetBytes: ws,
		StoreFraction:   0.25,
		Seed:            0x3A95 ^ uint64(ws),
	}
	switch kind {
	case MAPSUnitStride:
		spec.Mix = access.Mix{Unit: 1}
	case MAPSRandomStride:
		spec.Mix = access.Mix{Random: 1}
	}
	opts := memsim.TimingOpts{}
	if dependent {
		opts.MLPCap = simexec.DependentMLP
	}
	t, err := memsim.SimulateStream(cfg, spec, simexec.SampleSize(spec), opts)
	if err != nil {
		return 0, err
	}
	cycles := t.Cycles
	if dependent {
		cycles += float64(t.Refs) * cfg.FPLatencyCycles
	}
	seconds := cycles / (cfg.ClockGHz * 1e9)
	return float64(t.Refs) / seconds, nil
}

func sameCurve(a, b Curve) bool {
	if len(a.SizesBytes) != len(b.SizesBytes) || len(a.RefsPerSec) != len(b.RefsPerSec) {
		return false
	}
	for i := range a.SizesBytes {
		if a.SizesBytes[i] != b.SizesBytes[i] || math.Float64bits(a.RefsPerSec[i]) != math.Float64bits(b.RefsPerSec[i]) {
			return false
		}
	}
	return true
}

// TestMeasureCurvesMatchMAPS: on every preset, the four curves of a probe
// suite, which share one simulation per (kind, size), are bit-identical
// to the stand-alone MAPS sweeps. On the 128-way-L1 and direct-mapped-L2
// presets they are also bit-identical to pricing a separate simulation
// per variant.
func TestMeasureCurvesMatchMAPS(t *testing.T) {
	separate := map[string]bool{machine.MHPCCPower3: true, machine.ASCSC45: true}
	names := machine.Names()
	if testing.Short() {
		names = []string{machine.MHPCCPower3, machine.ASCSC45}
	}
	for _, name := range names {
		cfg := machine.MustPreset(name)
		res, err := Measure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			got       Curve
			kind      MAPSKind
			dependent bool
		}{
			{res.MAPSUnit, MAPSUnitStride, false},
			{res.MAPSRandom, MAPSRandomStride, false},
			{res.DepUnit, MAPSUnitStride, true},
			{res.DepRandom, MAPSRandomStride, true},
		} {
			want, err := MAPS(cfg, c.kind, nil, c.dependent)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCurve(c.got, want) {
				t.Errorf("%s kind %d dependent %v: Measure %v, MAPS %v", name, c.kind, c.dependent, c.got.RefsPerSec, want.RefsPerSec)
			}
			if !separate[name] {
				continue
			}
			for i, ws := range want.SizesBytes {
				ref, err := referenceMAPSPoint(cfg, c.kind, ws, c.dependent)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(want.RefsPerSec[i]) != math.Float64bits(ref) {
					t.Errorf("%s kind %d dependent %v at %d: shared sweep %v, separate simulation %v",
						name, c.kind, c.dependent, ws, want.RefsPerSec[i], ref)
				}
			}
		}
	}
}

// TestDepStepStillInjectable: the ENHANCED MAPS steps no longer simulate
// anything of their own, but a fault rule naming one still fails the
// suite with the injected error.
func TestDepStepStillInjectable(t *testing.T) {
	for _, step := range []string{"dep-unit", "dep-random"} {
		in := faults.New(1, faults.Rule{Point: faults.PointProbeStep, Kind: faults.Permanent, Rate: 1, Match: step})
		_, err := MeasureContext(in.Inject(context.Background()), machine.MustPreset(machine.ARLOpteron))
		if !errors.Is(err, faults.ErrPermanent) {
			t.Fatalf("%s rule: MeasureContext error %v, want the injected permanent fault", step, err)
		}
		if !strings.Contains(err.Error(), step) {
			t.Errorf("%s rule: error %q does not name the step", step, err)
		}
	}
}
