package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"hpcmetrics/internal/machine"
)

func model(t *testing.T, name string, procs int) *Model {
	t.Helper()
	m, err := New(machine.MustPreset(name), procs)
	if err != nil {
		t.Fatalf("New(%s, %d): %v", name, procs, err)
	}
	return m
}

func TestNewRejectsBadInputs(t *testing.T) {
	cfg := machine.MustPreset(machine.ARLXeon)
	if _, err := New(cfg, 0); err == nil {
		t.Error("accepted 0 ranks")
	}
	if _, err := New(cfg, cfg.TotalProcs+1); err == nil {
		t.Error("accepted more ranks than processors")
	}
	bad := cfg.Clone()
	bad.Net.LatencyUs = 0
	if _, err := New(bad, 4); err == nil {
		t.Error("accepted invalid machine")
	}
}

func TestPointToPointComponents(t *testing.T) {
	m := model(t, machine.ASCSC45, 64)
	zero := m.PointToPoint(0)
	want := 2*m.overhead + m.latency
	if math.Abs(zero-want) > 1e-15 {
		t.Fatalf("zero-byte p2p = %g, want %g", zero, want)
	}
	big := m.PointToPoint(1 << 20)
	if big <= zero {
		t.Fatal("1MB message not slower than empty message")
	}
}

func TestSingleRankCommunicatesForFree(t *testing.T) {
	m := model(t, machine.ARLOpteron, 1)
	if m.AllReduce(1024) != 0 || m.Bcast(1024) != 0 || m.Barrier() != 0 || m.AllToAll(1024) != 0 {
		t.Fatal("collectives on 1 rank should cost nothing")
	}
}

func TestAllReduceLogScaling(t *testing.T) {
	m16 := model(t, machine.NAVO655, 16)
	m256 := model(t, machine.NAVO655, 256)
	r16, r256 := m16.AllReduce(8), m256.AllReduce(8)
	// 16 -> 256 ranks: 4 stages -> 8 stages, so exactly 2x when the
	// per-stage cost is identical (same full-node contention).
	if math.Abs(r256/r16-2) > 0.01 {
		t.Fatalf("allreduce scaling 16->256 = %gx, want ~2x", r256/r16)
	}
}

func TestNICContentionSlowsFullNodes(t *testing.T) {
	// p690: 32 cores/node, 2 NICs. 2 ranks spread over the NICs see full
	// bandwidth; 32 ranks contend.
	cfg := machine.MustPreset(machine.MHPCC690)
	small, err := New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	// A large message is bandwidth-bound, so contention shows in its time.
	const bytes = 1 << 20
	if full.PointToPoint(bytes) <= small.PointToPoint(bytes) {
		t.Fatalf("contended message %g s not slower than uncontended %g s",
			full.PointToPoint(bytes), small.PointToPoint(bytes))
	}
}

func TestBarrierIsSmallAllReduce(t *testing.T) {
	m := model(t, machine.ARLAltix, 128)
	if m.Barrier() != m.AllReduce(8) {
		t.Fatal("barrier != 8-byte allreduce")
	}
}

func TestAllToAllScalesWithRanks(t *testing.T) {
	m32 := model(t, machine.NAVO655, 32)
	m128 := model(t, machine.NAVO655, 128)
	if m128.AllToAll(4096) <= m32.AllToAll(4096) {
		t.Fatal("alltoall not slower with more ranks")
	}
}

func TestEventTimeDispatch(t *testing.T) {
	m := model(t, machine.ERDCOrigin3800, 32)
	cases := []struct {
		ev   Event
		want float64
	}{
		{Event{Op: OpPointToPoint, Bytes: 100}, m.PointToPoint(100)},
		{Event{Op: OpAllReduce, Bytes: 8}, m.AllReduce(8)},
		{Event{Op: OpBcast, Bytes: 64}, m.Bcast(64)},
		{Event{Op: OpBarrier}, m.Barrier()},
		{Event{Op: OpAllToAll, Bytes: 256}, m.AllToAll(256)},
		{Event{Op: Op(99)}, 0},
	}
	for _, tc := range cases {
		if got := m.EventTime(tc.ev); got != tc.want {
			t.Errorf("EventTime(%v) = %g, want %g", tc.ev, got, tc.want)
		}
	}
}

func TestTimeSumsCountWeighted(t *testing.T) {
	m := model(t, machine.ARL690, 64)
	events := []Event{
		{Op: OpPointToPoint, Bytes: 8192, Count: 10},
		{Op: OpAllReduce, Bytes: 8, Count: 3},
	}
	want := 10*m.PointToPoint(8192) + 3*m.AllReduce(8)
	if got := m.Time(events); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Time = %g, want %g", got, want)
	}
}

func TestNegativeBytesTreatedAsZero(t *testing.T) {
	m := model(t, machine.ARLXeon, 16)
	if m.PointToPoint(-5) != m.PointToPoint(0) {
		t.Fatal("negative bytes mishandled")
	}
}

func TestLowLatencyFabricWinsSmallMessages(t *testing.T) {
	// NUMALink (Altix, 2us) must beat Colony (P3, 20us) on barriers.
	altix := model(t, machine.ARLAltix, 64)
	p3 := model(t, machine.MHPCCPower3, 64)
	if altix.Barrier() >= p3.Barrier() {
		t.Fatalf("Altix barrier %g not faster than P3 %g", altix.Barrier(), p3.Barrier())
	}
}

func TestFederationWinsLargeMessages(t *testing.T) {
	// Federation (1400 MB/s) must beat Myrinet (245 MB/s) on 1MB p2p.
	fed := model(t, machine.NAVO655, 64)
	myri := model(t, machine.ARLOpteron, 64)
	if fed.PointToPoint(1<<20) >= myri.PointToPoint(1<<20) {
		t.Fatal("Federation not faster than Myrinet at 1MB")
	}
}

func TestOpString(t *testing.T) {
	names := map[Op]string{
		OpPointToPoint: "p2p", OpAllReduce: "allreduce", OpBcast: "bcast",
		OpBarrier: "barrier", OpAllToAll: "alltoall", Op(42): "op(42)",
	}
	for op, want := range names {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", int(op), got, want)
		}
	}
}

// Property: every operation is monotone non-decreasing in message size.
func TestQuickMonotoneInBytes(t *testing.T) {
	m := model(t, machine.MHPCC690, 128)
	f := func(a, b uint32) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return m.PointToPoint(lo) <= m.PointToPoint(hi) &&
			m.AllReduce(lo) <= m.AllReduce(hi) &&
			m.Bcast(lo) <= m.Bcast(hi) &&
			m.AllToAll(lo) <= m.AllToAll(hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: collectives are monotone non-decreasing in rank count.
func TestQuickMonotoneInRanks(t *testing.T) {
	cfg := machine.MustPreset(machine.NAVO655)
	f := func(pa, pb uint8, kb uint8) bool {
		lo, hi := int(pa)%512+1, int(pb)%512+1
		if lo > hi {
			lo, hi = hi, lo
		}
		bytes := int64(kb) * 64
		mLo, err := New(cfg, lo)
		if err != nil {
			return false
		}
		mHi, err := New(cfg, hi)
		if err != nil {
			return false
		}
		return mLo.AllReduce(bytes) <= mHi.AllReduce(bytes) &&
			mLo.AllToAll(bytes) <= mHi.AllToAll(bytes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
