package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestHitDisabledPathAllocationFree pins the free disabled path: with no
// injector in the context, Hit must not allocate — a clean study pays
// nothing for carrying the injection points.
func TestHitDisabledPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if err := Hit(ctx, PointExecBlock, "ARL_Opteron", "avus-standard"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("disabled Hit allocates %.1f objects per call, want 0", allocs)
	}
}

func TestHitNilInjectorAndNoRules(t *testing.T) {
	if err := Hit(context.Background(), PointExecBlock, "a", "b"); err != nil {
		t.Errorf("Hit without injector = %v, want nil", err)
	}
	var nilIn *Injector
	ctx := nilIn.Inject(context.Background())
	if From(ctx) != nil {
		t.Error("nil injector must inject nothing")
	}
	in := New(1)
	ctx = in.Inject(context.Background())
	if err := Hit(ctx, PointExecBlock, "a", "b"); err != nil {
		t.Errorf("Hit with empty rule set = %v, want nil", err)
	}
}

// TestTransientBurstHeals: an armed transient identity fails Burst times
// and then succeeds forever — the retry loop's healing model.
func TestTransientBurstHeals(t *testing.T) {
	in := New(7, Rule{Point: PointExecBlock, Kind: Transient, Rate: 1, Burst: 2})
	ctx := in.Inject(context.Background())
	for i := 1; i <= 2; i++ {
		err := Hit(ctx, PointExecBlock, "sys", "app")
		if !errors.Is(err, ErrTransient) {
			t.Fatalf("hit %d = %v, want ErrTransient", i, err)
		}
	}
	if err := Hit(ctx, PointExecBlock, "sys", "app"); err != nil {
		t.Errorf("hit 3 = %v, want healed (nil)", err)
	}
	if got := in.Fired(Transient); got != 2 {
		t.Errorf("Fired(Transient) = %d, want 2", got)
	}
	// A different identity has its own burst counter.
	if err := Hit(ctx, PointExecBlock, "sys2", "app"); !errors.Is(err, ErrTransient) {
		t.Errorf("fresh identity = %v, want ErrTransient", err)
	}
}

func TestPermanentAlwaysFires(t *testing.T) {
	in := New(1, Rule{Point: PointProbeStep, Kind: Permanent, Rate: 1})
	ctx := in.Inject(context.Background())
	for i := 0; i < 3; i++ {
		if err := Hit(ctx, PointProbeStep, "sys", "stream"); !errors.Is(err, ErrPermanent) {
			t.Fatalf("hit %d = %v, want ErrPermanent", i+1, err)
		}
	}
	if got := in.Fired(Permanent); got != 3 {
		t.Errorf("Fired(Permanent) = %d, want 3", got)
	}
}

// TestStallHonorsContext: a stall sleeps, but an already-cancelled
// context reclaims it immediately with the context's error.
func TestStallHonorsContext(t *testing.T) {
	in := New(1, Rule{Point: PointTraceBlock, Kind: Stall, Rate: 1, Stall: time.Hour})
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := in.Inject(cctx)
	start := time.Now()
	err := Hit(ctx, PointTraceBlock, "app", "block")
	if !errors.Is(err, context.Canceled) {
		t.Errorf("stalled hit under cancelled ctx = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("cancelled stall took %v, want immediate", el)
	}
	if got := in.Fired(Stall); got != 1 {
		t.Errorf("Fired(Stall) = %d, want 1", got)
	}
}

func TestStallShortSleepSucceeds(t *testing.T) {
	in := New(1, Rule{Point: PointTraceBlock, Kind: Stall, Rate: 1, Stall: time.Millisecond})
	ctx := in.Inject(context.Background())
	if err := Hit(ctx, PointTraceBlock, "app", "block"); err != nil {
		t.Errorf("short stall = %v, want nil", err)
	}
}

// TestMatchRestrictsRule: Match gates on site-or-sub substring.
func TestMatchRestrictsRule(t *testing.T) {
	in := New(1, Rule{Point: PointExecBlock, Kind: Permanent, Rate: 1, Match: "ARL"})
	ctx := in.Inject(context.Background())
	if err := Hit(ctx, PointExecBlock, "ARL_Opteron", "avus"); !errors.Is(err, ErrPermanent) {
		t.Errorf("matching site = %v, want ErrPermanent", err)
	}
	if err := Hit(ctx, PointExecBlock, "MHPCC_P3", "avus"); err != nil {
		t.Errorf("non-matching identity = %v, want nil", err)
	}
	if err := Hit(ctx, PointExecBlock, "MHPCC_P3", "ARL-like-app"); !errors.Is(err, ErrPermanent) {
		t.Errorf("matching sub = %v, want ErrPermanent", err)
	}
}

// TestArmedDeterministicAndFractional: arming is a pure function of
// (seed, rule, identity); rate 0 never fires, rate 1 always fires, and a
// fractional rate arms a stable strict subset.
func TestArmedDeterministicAndFractional(t *testing.T) {
	sites := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j",
		"k", "l", "m", "n", "o", "p", "q", "r", "s", "t"}
	count := func(seed uint64, rate float64) int {
		in := New(seed, Rule{Point: PointExecBlock, Kind: Permanent, Rate: rate})
		ctx := in.Inject(context.Background())
		n := 0
		for _, s := range sites {
			if Hit(ctx, PointExecBlock, s, "app") != nil {
				n++
			}
		}
		return n
	}
	if got := count(1, 0); got != 0 {
		t.Errorf("rate 0 armed %d identities, want 0", got)
	}
	if got := count(1, 1); got != len(sites) {
		t.Errorf("rate 1 armed %d identities, want %d", got, len(sites))
	}
	half := count(1, 0.5)
	if half == 0 || half == len(sites) {
		t.Errorf("rate 0.5 armed %d of %d identities, want a strict subset", half, len(sites))
	}
	if again := count(1, 0.5); again != half {
		t.Errorf("same seed armed %d then %d identities, want deterministic", half, again)
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseRules("transient:simexec.block:1:2, stall:probes.step:0.5:1:30s:ARL")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Kind: Transient, Point: PointExecBlock, Rate: 1, Burst: 2},
		{Kind: Stall, Point: PointProbeStep, Rate: 0.5, Burst: 1, Stall: 30 * time.Second, Match: "ARL"},
	}
	if len(rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d", len(rules), len(want))
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Errorf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}
	for _, bad := range []string{
		"bogus:simexec.block:1",       // unknown kind
		"transient:nowhere:1",         // unknown point
		"transient:simexec.block:2",   // rate out of range
		"transient:simexec.block:NaN", // rate not a number
		"transient:simexec.block",     // too few fields
		"stall:probes.step:1",         // stall without duration
		"transient:simexec.block:1:x", // bad burst
	} {
		if _, err := ParseRules(bad); err == nil {
			t.Errorf("ParseRules(%q) = nil error, want failure", bad)
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Transient, Stall, Permanent} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseKind("flaky"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
}

// TestFingerprintDistinguishesPlans: the fingerprint feeding the study's
// checkpoint options tag must separate every distinct fault plan — seed,
// rule set, and rule parameters — and be stable for identical plans.
func TestFingerprintDistinguishesPlans(t *testing.T) {
	if got := (*Injector)(nil).Fingerprint(); got != "" {
		t.Errorf("nil injector fingerprint = %q, want empty", got)
	}
	rule := Rule{Point: PointExecBlock, Kind: Transient, Rate: 0.5, Burst: 2}
	same1 := New(7, rule).Fingerprint()
	same2 := New(7, rule).Fingerprint()
	if same1 != same2 {
		t.Errorf("identical plans fingerprint differently: %q vs %q", same1, same2)
	}
	distinct := map[string]string{
		"seed":     New(8, rule).Fingerprint(),
		"no rules": New(7).Fingerprint(),
		"kind":     New(7, Rule{Point: PointExecBlock, Kind: Permanent, Rate: 0.5, Burst: 2}).Fingerprint(),
		"rate":     New(7, Rule{Point: PointExecBlock, Kind: Transient, Rate: 1, Burst: 2}).Fingerprint(),
		"stall":    New(7, Rule{Point: PointExecBlock, Kind: Stall, Rate: 0.5, Stall: time.Second}).Fingerprint(),
		"match":    New(7, Rule{Point: PointExecBlock, Kind: Transient, Rate: 0.5, Burst: 2, Match: "avus"}).Fingerprint(),
	}
	for field, fp := range distinct {
		if fp == same1 {
			t.Errorf("changing %s left the fingerprint at %q", field, fp)
		}
	}
}

// FuzzParseRules: the -faults grammar never panics, and every rule it
// accepts is one the injector can honor — a known point, a rate in
// [0, 1], and a positive stall for the stall kind.
func FuzzParseRules(f *testing.F) {
	// The seed corpus lives in testdata/fuzz/FuzzParseRules: the CLI's
	// documented examples, the chaos target's spec, and rejects.
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseRules(spec)
		if err != nil {
			return
		}
		known := make(map[string]bool)
		for _, p := range Points() {
			known[p] = true
		}
		for i, r := range rules {
			if !known[r.Point] {
				t.Errorf("rule %d: unknown point %q accepted", i, r.Point)
			}
			if !(r.Rate >= 0 && r.Rate <= 1) {
				t.Errorf("rule %d: rate %v outside [0, 1] accepted", i, r.Rate)
			}
			if r.Kind == Stall && r.Stall <= 0 {
				t.Errorf("rule %d: stall rule with stall %v accepted", i, r.Stall)
			}
		}
	})
}
