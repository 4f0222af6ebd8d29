// Package faults injects deterministic failures into the study pipeline.
//
// The paper's 150-observation grid was gathered on ten production DoD
// systems where individual runs fail, stall, and vary; a harness that
// claims to tolerate those failures must be testable under them. An
// Injector carries a seed and a rule set; pipeline stages call Hit at
// named injection points — between simulated basic blocks, between probe
// steps, between traced blocks — and receive a transient error, a
// context-aware latency stall, a permanent error, or nothing. Whether a
// given (point, site, sub) identity is armed is a pure function of the
// seed and the identity, never of scheduling or wall-clock time, so a
// chaos run injects the same faults at any worker count.
//
// Like internal/obs, the disabled path is free: with no Injector in the
// context, Hit returns nil without allocating, so a clean study's output
// stays byte-identical to the Table 4 golden.
package faults

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpcmetrics/internal/obs"
)

// Kind is a class of injected fault.
type Kind int

const (
	// Transient is a retryable failure: the hit returns ErrTransient for
	// the first Rule.Burst hits of an armed identity, then heals — the
	// model of a flaky node that succeeds on re-submission.
	Transient Kind = iota
	// Stall delays the hit by Rule.Stall without failing it, honoring
	// context cancellation — the model of a wedged run that only a
	// deadline can reclaim.
	Stall
	// Permanent fails every hit of an armed identity with ErrPermanent —
	// the model of a broken (machine, application) pairing that no retry
	// fixes.
	Permanent
)

// String names the kind as it appears in rule specs and metric names.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Stall:
		return "stall"
	case Permanent:
		return "permanent"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind inverts Kind.String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "transient":
		return Transient, nil
	case "stall":
		return Stall, nil
	case "permanent":
		return Permanent, nil
	default:
		return 0, fmt.Errorf("faults: unknown kind %q (want transient, stall, or permanent)", s)
	}
}

// Sentinel errors carried (via %w) by every injected failure, so retry
// classifiers can tell a healing fault from a permanent one.
var (
	ErrTransient = errors.New("faults: injected transient fault")
	ErrPermanent = errors.New("faults: injected permanent fault")
)

// The named injection points. Each pairs with a (site, sub) identity:
// the machine and the application run ("app-case@procs") for executor
// blocks, the machine and step name for probes, the application run and
// block name for tracing.
const (
	PointExecBlock  = "simexec.block"
	PointProbeStep  = "probes.step"
	PointTraceBlock = "trace.block"
)

// Points lists every injection point, in pipeline order.
func Points() []string {
	return []string{PointExecBlock, PointProbeStep, PointTraceBlock}
}

// Rule arms one fault at one injection point.
type Rule struct {
	// Point is the injection point (PointExecBlock, ...).
	Point string
	// Kind is what happens on an armed hit.
	Kind Kind
	// Rate is the fraction of (site, sub) identities armed, in [0, 1]:
	// 1 arms every identity, 0.5 a deterministic half of them.
	Rate float64
	// Burst is how many hits fire before a Transient or Stall identity
	// heals; 0 or less means 1. Permanent rules ignore Burst.
	Burst int
	// Stall is the delay for Kind Stall.
	Stall time.Duration
	// Match, when non-empty, additionally restricts the rule to
	// identities whose site or sub contains it as a substring.
	Match string
}

// hitID identifies one (rule, identity) pair for burst counting.
type hitID struct {
	rule int
	site string
	sub  string
}

// Injector evaluates a rule set at every Hit. The zero value and nil are
// both valid, disabled injectors.
type Injector struct {
	seed  uint64
	rules []Rule

	mu    sync.Mutex
	hits  map[hitID]int // guarded by mu
	fired [3]int64      // guarded by mu; indexed by Kind
}

// New builds an injector from a jitter seed and a rule set. No rules
// means nothing ever fires.
func New(seed uint64, rules ...Rule) *Injector {
	return &Injector{seed: seed, rules: rules, hits: make(map[hitID]int)}
}

// Fingerprint canonically encodes the injector's seed and rule set, in
// rule order. Whether and where faults fire is a pure function of both,
// so two injectors with equal fingerprints perturb a deterministic run
// identically — the study's checkpoint journal records the fingerprint
// to reject resuming under a different chaos configuration. Nil-safe: a
// nil (disarmed) injector reports the empty string, distinct from any
// armed one.
func (in *Injector) Fingerprint() string {
	if in == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", in.seed)
	for _, r := range in.rules {
		fmt.Fprintf(&b, ",%s:%s:%g:%d:%s:%s", r.Kind, r.Point, r.Rate, r.Burst, r.Stall, r.Match)
	}
	return b.String()
}

// Fired reports how many faults of one kind have been injected.
func (in *Injector) Fired(k Kind) int64 {
	if in == nil || k < Transient || k > Permanent {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[k]
}

// faultCtx carries the injector down the pipeline. A dedicated carrier
// type (rather than context.WithValue) keeps Inject to one allocation
// and lets From type-switch without touching unrelated values.
type faultCtx struct {
	context.Context
	in *Injector
}

type ctxKey struct{}

// Value satisfies context.Context, answering only our key.
func (c *faultCtx) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return c.in
	}
	return c.Context.Value(key)
}

// Inject returns a context carrying the injector. Nil-safe: a nil
// injector returns ctx unchanged, so the disabled path threads nothing.
func (in *Injector) Inject(ctx context.Context) context.Context {
	if in == nil {
		return ctx
	}
	return &faultCtx{Context: ctx, in: in}
}

// From extracts the injector from ctx, or nil. The lookup allocates
// nothing: ctxKey is zero-size, so boxing it costs no heap.
func From(ctx context.Context) *Injector {
	if ctx == nil {
		return nil
	}
	in, _ := ctx.Value(ctxKey{}).(*Injector)
	return in
}

// Hit evaluates the injection point against the context's injector:
// nil when no injector is armed for (point, site, sub), an error
// wrapping ErrTransient or ErrPermanent when one fires, or the
// context's error if an armed stall is cancelled mid-sleep. With no
// injector in ctx this is a free no-op — no allocation, no lock.
func Hit(ctx context.Context, point, site, sub string) error {
	in := From(ctx)
	if in == nil {
		return nil
	}
	return in.hit(ctx, point, site, sub)
}

func (in *Injector) hit(ctx context.Context, point, site, sub string) error {
	for ri := range in.rules {
		r := &in.rules[ri]
		if r.Point != point {
			continue
		}
		if r.Match != "" && !strings.Contains(site, r.Match) && !strings.Contains(sub, r.Match) {
			continue
		}
		if !in.armed(ri, point, site, sub) {
			continue
		}
		n := in.countHit(ri, site, sub)
		burst := r.Burst
		if burst <= 0 {
			burst = 1
		}
		switch r.Kind {
		case Transient:
			if n <= burst {
				in.record(ctx, Transient)
				return fmt.Errorf("%w at %s (%s/%s, hit %d)", ErrTransient, point, site, sub, n)
			}
		case Stall:
			if n <= burst {
				in.record(ctx, Stall)
				if err := sleepCtx(ctx, r.Stall); err != nil {
					return err
				}
			}
		case Permanent:
			in.record(ctx, Permanent)
			return fmt.Errorf("%w at %s (%s/%s)", ErrPermanent, point, site, sub)
		}
	}
	return nil
}

// armed decides — purely from the seed, the rule index, and the identity
// — whether this rule fires at this identity. FNV-1a, like the study's
// observation noise, so chaos runs are reproducible bit for bit.
func (in *Injector) armed(ri int, point, site, sub string) bool {
	r := &in.rules[ri]
	if r.Rate <= 0 {
		return false
	}
	if r.Rate >= 1 {
		return true
	}
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	for shift := 0; shift < 64; shift += 8 {
		h ^= (in.seed >> shift) & 0xff
		h *= 1099511628211
	}
	h ^= uint64(ri)
	h *= 1099511628211
	mix(point)
	mix(site)
	mix(sub)
	u := float64(h>>11) / float64(uint64(1)<<53) // uniform [0,1)
	return u < r.Rate
}

// countHit returns this identity's 1-based hit count under one rule.
func (in *Injector) countHit(ri int, site, sub string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	id := hitID{rule: ri, site: site, sub: sub}
	in.hits[id]++
	return in.hits[id]
}

// record tallies a fired fault, both on the injector and — when the
// context carries an obs registry — on the faults_injected_* counters.
func (in *Injector) record(ctx context.Context, k Kind) {
	in.mu.Lock()
	in.fired[k]++
	in.mu.Unlock()
	meter := obs.From(ctx).Meter()
	meter.Counter("faults_injected_total").Inc()
	meter.Counter("faults_injected_" + k.String() + "_total").Inc()
}

// sleepCtx sleeps for d or until ctx is cancelled, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ParseRules parses the -faults CLI grammar: comma-separated rules of
// the form
//
//	kind:point:rate[:burst[:stall[:match]]]
//
// e.g. "transient:simexec.block:1:2" (every executor identity fails
// twice, then heals) or "stall:probes.step:0.5:1:30s:ARL" (half the
// ARL probe steps stall once for 30s).
func ParseRules(spec string) ([]Rule, error) {
	var rules []Rule
	known := make(map[string]bool)
	for _, p := range Points() {
		known[p] = true
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 3 || len(fields) > 6 {
			return nil, fmt.Errorf("faults: rule %q: want kind:point:rate[:burst[:stall[:match]]]", part)
		}
		kind, err := ParseKind(fields[0])
		if err != nil {
			return nil, err
		}
		if !known[fields[1]] {
			return nil, fmt.Errorf("faults: rule %q: unknown point %q (want one of %s)",
				part, fields[1], strings.Join(Points(), ", "))
		}
		rate, err := strconv.ParseFloat(fields[2], 64)
		// Written so NaN fails too: it compares false both ways.
		if err != nil || !(rate >= 0 && rate <= 1) {
			return nil, fmt.Errorf("faults: rule %q: rate %q must be a number in [0, 1]", part, fields[2])
		}
		r := Rule{Kind: kind, Point: fields[1], Rate: rate}
		if len(fields) > 3 && fields[3] != "" {
			r.Burst, err = strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("faults: rule %q: bad burst %q", part, fields[3])
			}
		}
		if len(fields) > 4 && fields[4] != "" {
			r.Stall, err = time.ParseDuration(fields[4])
			if err != nil {
				return nil, fmt.Errorf("faults: rule %q: bad stall %q", part, fields[4])
			}
		}
		if len(fields) > 5 {
			r.Match = fields[5]
		}
		if kind == Stall && r.Stall <= 0 {
			return nil, fmt.Errorf("faults: rule %q: stall kind needs a positive stall duration", part)
		}
		rules = append(rules, r)
	}
	return rules, nil
}
