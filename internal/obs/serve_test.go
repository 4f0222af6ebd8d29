package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	traceID := NewTraceID()
	if len(traceID) != 32 {
		t.Fatalf("NewTraceID length %d, want 32", len(traceID))
	}
	h := FormatTraceparent(traceID, 0x1234)
	gotTrace, gotParent, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("own traceparent %q does not parse", h)
	}
	if gotTrace != traceID || gotParent != "0000000000001234" {
		t.Errorf("parsed (%s, %s), want (%s, 0000000000001234)", gotTrace, gotParent, traceID)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // all-zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // all-zero parent
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // wrong length
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong separator
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
}

func TestStartRequestSpan(t *testing.T) {
	// No tracer: nil span, context unchanged, everything downstream no-ops.
	ctx, s := StartRequestSpan(context.Background(), "predict", "")
	if s != nil {
		t.Fatal("tracerless StartRequestSpan returned a span")
	}
	if s.TraceID() != "" || s.Traceparent() != "" {
		t.Error("nil span leaks trace identity")
	}
	_ = ctx

	// Fresh trace: no incoming header.
	o := New()
	ctx, root := StartRequestSpan(o.Inject(context.Background()), "predict", "")
	if root.TraceID() == "" {
		t.Fatal("request span has no trace ID")
	}
	_, child := StartSpan(ctx, "compute")
	if child.TraceID() != root.TraceID() {
		t.Errorf("child trace %q differs from root %q", child.TraceID(), root.TraceID())
	}
	child.End()
	root.End()
	recs := o.Tracer.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Trace != root.TraceID() {
			t.Errorf("record %s trace %q, want %q", rec.Name, rec.Trace, root.TraceID())
		}
	}

	// Incoming traceparent: trace adopted, remote parent annotated.
	const in = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	_, joined := StartRequestSpan(o.Inject(context.Background()), "predict", in)
	if joined.TraceID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("joined trace %q, want the caller's", joined.TraceID())
	}
	if joined.Attr(AttrRemoteParent) != "00f067aa0ba902b7" {
		t.Errorf("remote parent %q, want caller's span ID", joined.Attr(AttrRemoteParent))
	}
	joined.End()

	// Batch spans (plain StartSpan roots) stay trace-free so batch logs
	// are byte-identical to pre-tracing ones.
	_, batch := StartSpan(o.Inject(context.Background()), "study")
	batch.End()
	var buf bytes.Buffer
	if err := o.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `"name":"study"`) && strings.Contains(line, `"trace"`) {
			t.Errorf("batch span exported a trace field: %s", line)
		}
	}
}

// failSink fails every write.
type failSink struct{}

func (failSink) WriteSpan(SpanRecord) error { return errors.New("boom") }

// memSink buffers records.
type memSink struct{ recs []SpanRecord }

func (m *memSink) WriteSpan(rec SpanRecord) error {
	m.recs = append(m.recs, rec)
	return nil
}

func TestTracerSinkStreams(t *testing.T) {
	o := New()
	sink := &memSink{}
	o.Tracer.SetSink(sink)
	_, s := StartRequestSpan(o.Inject(context.Background()), "predict", "")
	s.End()
	if o.Tracer.Len() != 0 {
		t.Errorf("streaming tracer buffered %d spans, want 0", o.Tracer.Len())
	}
	if len(sink.recs) != 1 || sink.recs[0].Name != "predict" {
		t.Fatalf("sink got %+v, want one predict span", sink.recs)
	}

	o.Tracer.SetSink(failSink{})
	_, s = StartRequestSpan(o.Inject(context.Background()), "predict", "")
	s.End()
	if got := o.Tracer.SinkErrors(); got != 1 {
		t.Errorf("SinkErrors = %d, want 1", got)
	}
}

func TestJSONLFileRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spans.jsonl")
	// Each record is ~90 bytes; cap at 256 so a handful of writes rotate.
	f, err := OpenJSONLFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := f.WriteSpan(SpanRecord{ID: uint64(i + 1), Name: "n", Path: "n", DurNs: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if f.Rotations() < 1 {
		t.Error("no rotation after exceeding maxBytes")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("second Close = %v, want idempotent nil", err)
	}
	if err := f.WriteRecord(SpanRecord{ID: 99}); err == nil {
		t.Error("write after close succeeded")
	}

	// Both generations together hold every record, all lines whole.
	var all []SpanRecord
	for _, p := range []string{path + ".1", path} {
		g, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := ReadJSONL(g)
		g.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		all = append(all, recs...)
	}
	// Rotation keeps only the newest two generations; everything present
	// must be whole and in order, ending at the last record written.
	if len(all) == 0 || all[len(all)-1].ID != 10 {
		t.Fatalf("generations end at %v, want record 10 last", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i].ID != all[i-1].ID+1 {
			t.Fatalf("generation gap between %d and %d", all[i-1].ID, all[i].ID)
		}
	}
}

func TestAccessLogRoundTripAndTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "access.jsonl")
	l, err := OpenAccessLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := AccessRecord{TimeNs: 42, Trace: "abc", Endpoint: "predict", Status: 200, LatencyNs: 7, Outcome: "cold", Bytes: 100}
	if err := l.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAccessLog(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0] != want {
		t.Errorf("round trip got %+v, want %+v", recs, want)
	}

	// A torn tail (half a JSON line) is an error, not a silent drop.
	if _, err := ReadAccessLog(strings.NewReader(`{"t_ns":1,"trace":"abc","endpoint":"pre`)); err == nil {
		t.Error("torn tail read back without error")
	}

	// Nil log drops records without error.
	var nilLog *AccessLog
	if err := nilLog.Write(want); err != nil {
		t.Errorf("nil AccessLog.Write = %v", err)
	}
	if err := nilLog.Close(); err != nil {
		t.Errorf("nil AccessLog.Close = %v", err)
	}
}

func TestRollingWindow(t *testing.T) {
	r := NewRolling(time.Second, 3)
	// guarded by nothing: the test owns the clock.
	clock := time.Unix(1000, 0)
	r.now = func() time.Time { return clock }

	for i := 0; i < 100; i++ {
		r.Observe(time.Millisecond)
	}
	r.Observe(time.Second)
	snap := r.Snapshot()
	if snap.Count != 101 {
		t.Fatalf("count %d, want 101", snap.Count)
	}
	if snap.WindowSeconds != 3 {
		t.Errorf("window %v, want 3s", snap.WindowSeconds)
	}
	// p50 sits in the 1ms bucket (upper bound within 2x), p99 too
	// (rank 100 of 101); the single 1s outlier only shows at the max.
	if snap.P50Ns < time.Millisecond.Nanoseconds() || snap.P50Ns > 2*time.Millisecond.Nanoseconds() {
		t.Errorf("p50 %d outside [1ms, 2ms]", snap.P50Ns)
	}
	if snap.P99Ns > 2*time.Millisecond.Nanoseconds() {
		t.Errorf("p99 %d above 2ms despite 100/101 at 1ms", snap.P99Ns)
	}
	if snap.MeanNs <= time.Millisecond.Nanoseconds() {
		t.Errorf("mean %d not pulled up by the outlier", snap.MeanNs)
	}

	// Two shards later, the observations are still inside the window...
	clock = clock.Add(2 * time.Second)
	r.Observe(2 * time.Millisecond)
	if snap = r.Snapshot(); snap.Count != 102 {
		t.Errorf("count after 2s = %d, want 102", snap.Count)
	}
	// ...but once the window laps them, only fresh traffic remains.
	clock = clock.Add(3 * time.Second)
	if snap = r.Snapshot(); snap.Count != 0 {
		t.Errorf("count after lapping = %d, want 0", snap.Count)
	}

	var nilRolling *Rolling
	nilRolling.Observe(time.Second)
	if snap = nilRolling.Snapshot(); snap.Count != 0 {
		t.Errorf("nil Rolling snapshot %+v", snap)
	}
}

// serveLogs builds a minimal valid span/access pair: one cold request,
// one cached, one coalesced follower referencing the cold leader.
func serveLogs() ([]SpanRecord, []AccessRecord) {
	spans := []SpanRecord{
		{ID: 1, Trace: "aaa", Name: "predict", Path: "predict",
			Attrs: map[string]string{AttrEndpoint: "predict", AttrStatus: "200", AttrOutcome: "cold"}},
		{ID: 2, Parent: 1, Trace: "aaa", Name: "cell.compute", Path: "predict/cell.compute",
			Attrs: map[string]string{AttrOutcome: "cold"}},
		{ID: 3, Trace: "bbb", Name: "predict", Path: "predict",
			Attrs: map[string]string{AttrEndpoint: "predict", AttrStatus: "200", AttrOutcome: "cached"}},
		{ID: 4, Trace: "ccc", Name: "predict", Path: "predict",
			Attrs: map[string]string{AttrEndpoint: "predict", AttrStatus: "200", AttrOutcome: "coalesced"}},
		{ID: 5, Parent: 4, Trace: "ccc", Name: "cell.wait", Path: "predict/cell.wait",
			Attrs: map[string]string{AttrOutcome: "coalesced", AttrLeaderTrace: "aaa"}},
	}
	accs := []AccessRecord{
		{Trace: "aaa", Endpoint: "predict", Status: 200, Outcome: "cold"},
		{Trace: "bbb", Endpoint: "predict", Status: 200, Outcome: "cached"},
		{Trace: "ccc", Endpoint: "predict", Status: 200, Outcome: "coalesced"},
	}
	return spans, accs
}

func TestCheckServeLogs(t *testing.T) {
	spans, accs := serveLogs()
	stats, err := CheckServeLogs(spans, accs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.AccessRecords != 3 || stats.RootSpans != 3 || stats.CoalescedSpans != 1 {
		t.Errorf("stats = %+v, want 3 records / 3 roots / 1 coalesced", stats)
	}
	for _, outcome := range []string{"cold", "cached", "coalesced"} {
		if stats.Outcomes[outcome] != 1 {
			t.Errorf("outcome %q count %d, want 1", outcome, stats.Outcomes[outcome])
		}
	}
	if got := fmt.Sprint(stats.OutcomeNames()); got != "[cached coalesced cold]" {
		t.Errorf("OutcomeNames() = %s", got)
	}
}

func TestCheckServeLogsRejects(t *testing.T) {
	breakers := []struct {
		name  string
		wreck func(spans []SpanRecord, accs []AccessRecord) ([]SpanRecord, []AccessRecord)
	}{
		{"duplicate span id", func(s []SpanRecord, a []AccessRecord) ([]SpanRecord, []AccessRecord) {
			s[1].ID = s[0].ID
			return s, a
		}},
		{"unknown parent", func(s []SpanRecord, a []AccessRecord) ([]SpanRecord, []AccessRecord) {
			s[1].Parent = 999
			return s, a
		}},
		{"child outside parent trace", func(s []SpanRecord, a []AccessRecord) ([]SpanRecord, []AccessRecord) {
			s[1].Trace = "zzz"
			return s, a
		}},
		{"parent cycle", func(s []SpanRecord, a []AccessRecord) ([]SpanRecord, []AccessRecord) {
			s = append(s, SpanRecord{ID: 10, Parent: 11, Trace: "aaa", Name: "x", Path: "x"},
				SpanRecord{ID: 11, Parent: 10, Trace: "aaa", Name: "y", Path: "y"})
			return s, a
		}},
		{"access record without trace", func(s []SpanRecord, a []AccessRecord) ([]SpanRecord, []AccessRecord) {
			a[0].Trace = ""
			return s, a
		}},
		{"access record without root span", func(s []SpanRecord, a []AccessRecord) ([]SpanRecord, []AccessRecord) {
			a[0].Trace = "nonesuch"
			return s, a
		}},
		{"access status mismatch", func(s []SpanRecord, a []AccessRecord) ([]SpanRecord, []AccessRecord) {
			a[0].Status = 500
			return s, a
		}},
		{"coalesced span without leader", func(s []SpanRecord, a []AccessRecord) ([]SpanRecord, []AccessRecord) {
			delete(s[4].Attrs, AttrLeaderTrace)
			return s, a
		}},
		{"coalesced leader trace unknown", func(s []SpanRecord, a []AccessRecord) ([]SpanRecord, []AccessRecord) {
			s[4].Attrs[AttrLeaderTrace] = "nonesuch"
			return s, a
		}},
	}
	for _, b := range breakers {
		spans, accs := serveLogs()
		spans, accs = b.wreck(spans, accs)
		if _, err := CheckServeLogs(spans, accs); err == nil {
			t.Errorf("%s: CheckServeLogs accepted", b.name)
		}
	}
}

func TestPromNameSanitizes(t *testing.T) {
	cases := []struct{ in, want string }{
		{"predictd_inflight", "predictd_inflight"},
		{"a:b", "a:b"},
		{"9lives", "_9lives"},
		{"latency.ms", "latency_ms"},
		{"weird name/σ", "weird_name___"}, // σ is two UTF-8 bytes, each replaced
		{"", "_"},
	}
	for _, c := range cases {
		if got := PromName(c.in); got != c.want {
			t.Errorf("PromName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPromFloatSpecials(t *testing.T) {
	nan := 0.0
	if got := PromFloat(nan / nan); got != "NaN" {
		t.Errorf("NaN rendered %q", got)
	}
	if got := PromFloat(1 / nan); got != "+Inf" {
		t.Errorf("+Inf rendered %q", got)
	}
	if got := PromFloat(-1 / nan); got != "-Inf" {
		t.Errorf("-Inf rendered %q", got)
	}
	if got := PromFloat(0.25); got != "0.25" {
		t.Errorf("0.25 rendered %q", got)
	}
}

// TestWritePromConformance checks every exposition line against the text
// format grammar, with instrument names that need sanitizing and
// histogram buckets that must be cumulative.
func TestWritePromConformance(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("latency.by-endpoint").Inc()
	reg.Gauge("9th_percentile").Set(3)
	h := reg.Histogram("predictd_predict_seconds")
	h.Observe(time.Microsecond)
	h.Observe(time.Millisecond)
	h.Observe(time.Second)

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	name := `[a-zA-Z_:][a-zA-Z0-9_:]*`
	sampleRe := regexp.MustCompile(`^` + name + `(\{le="[^"]+"\})? (NaN|[+-]Inf|[-+0-9.e]+)$`)
	typeRe := regexp.MustCompile(`^# TYPE ` + name + ` (counter|gauge|histogram)$`)
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !typeRe.MatchString(line) {
				t.Errorf("malformed TYPE line %q", line)
			}
			continue
		}
		if !sampleRe.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
	out := buf.String()
	for _, want := range []string{"latency_by_endpoint 1", "_9th_percentile 3", `predictd_predict_seconds_bucket{le="+Inf"} 3`} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Cumulative buckets: counts never decrease along le, ending at 3.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "predictd_predict_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = v
	}
	if prev != 3 {
		t.Errorf("final cumulative bucket %d, want 3", prev)
	}
}

func TestRuntimeSampler(t *testing.T) {
	reg := NewRegistry()
	SampleRuntime(reg)
	if reg.Gauge("runtime_goroutines").Value() < 1 {
		t.Error("runtime_goroutines gauge not set")
	}
	if reg.Gauge("runtime_heap_alloc_bytes").Value() <= 0 {
		t.Error("runtime_heap_alloc_bytes gauge not set")
	}
	SampleRuntime(nil) // nil-safe

	ctx, cancel := context.WithCancel(context.Background())
	stopped := StartRuntimeSampler(ctx, reg, time.Millisecond)
	cancel()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("sampler did not stop after cancellation")
	}
}

// FuzzParseTraceparent: the header parser never panics, and whatever it
// accepts is the W3C version-00 form it reports — a nonzero lowercase-hex
// trace and parent ID, rebuilt byte for byte from the input.
func FuzzParseTraceparent(f *testing.F) {
	// The seed corpus lives in testdata/fuzz/FuzzParseTraceparent.
	f.Fuzz(func(t *testing.T, h string) {
		trace, parent, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if want := "00-" + trace + "-" + parent + "-" + h[53:]; h != want {
			t.Fatalf("accepted %q but parsed it as %q", h, want)
		}
		for _, id := range []string{trace, parent} {
			if strings.Trim(id, "0123456789abcdef") != "" || strings.Trim(id, "0") == "" {
				t.Fatalf("accepted %q with ID %q, want nonzero lowercase hex", h, id)
			}
		}
	})
}
