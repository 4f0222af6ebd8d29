package obs

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanParentChildThroughContext(t *testing.T) {
	o := New()
	ctx := o.Inject(context.Background())
	ctx, root := StartSpan(ctx, "study")
	cctx, child := StartSpan(ctx, "observe")
	_, grand := StartSpan(cctx, "exec")
	grand.End()
	child.End()
	root.End()

	recs := o.Tracer.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["study"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["study"].Parent)
	}
	if byName["observe"].Parent != byName["study"].ID {
		t.Errorf("observe parent = %d, want %d", byName["observe"].Parent, byName["study"].ID)
	}
	if byName["exec"].Parent != byName["observe"].ID {
		t.Errorf("exec parent = %d, want %d", byName["exec"].Parent, byName["observe"].ID)
	}
	if got := byName["exec"].Path; got != "study/observe/exec" {
		t.Errorf("exec path = %q, want study/observe/exec", got)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	o := New()
	_, s := StartSpan(o.Inject(context.Background()), "once")
	s.End()
	s.End()
	if n := o.Tracer.Len(); n != 1 {
		t.Fatalf("double End recorded %d spans, want 1", n)
	}
}

func TestDisabledPathNilSafe(t *testing.T) {
	ctx := context.Background()
	sctx, s := StartSpan(ctx, "noop")
	if sctx != ctx {
		t.Error("disabled StartSpan should return the context unchanged")
	}
	if s != nil {
		t.Error("disabled StartSpan should return a nil span")
	}
	s.Annotate("k", "v")
	s.End()

	var o *Obs
	if got := o.Inject(ctx); got != ctx {
		t.Error("nil Obs Inject should return ctx unchanged")
	}
	o.Meter().Counter("c").Inc()
	o.Meter().Gauge("g").Add(1)
	o.Meter().Histogram("h").Observe(time.Millisecond)
	var tr *Tracer
	if tr.Records() != nil || tr.Len() != 0 {
		t.Error("nil tracer should read empty")
	}
}

func TestDisabledPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	var o *Obs
	ctx = o.Inject(ctx)
	allocs := testing.AllocsPerRun(100, func() {
		c, s := StartSpan(ctx, "cell")
		s.Annotate("k", "v")
		s.End()
		_ = c
		o.Meter().Counter("study_jobs_total").Inc()
		o.Meter().Gauge("study_workers_busy").Add(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocates %v per op, want 0", allocs)
	}
}

func TestConcurrentSpans(t *testing.T) {
	o := New()
	ctx := o.Inject(context.Background())
	ctx, root := StartSpan(ctx, "study")
	const workers = 16
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cctx, cell := StartSpan(ctx, "observe")
				cell.Annotate("cell", "x")
				_, inner := StartSpan(cctx, "exec")
				inner.End()
				cell.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	recs := o.Tracer.Records()
	want := 1 + 2*workers*perWorker
	if len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	for _, r := range recs {
		if r.Name == "observe" && r.Parent != root.id {
			t.Fatalf("observe span parent = %d, want root %d", r.Parent, root.id)
		}
	}
}

func TestExporterUnderConcurrentWrites(t *testing.T) {
	o := New()
	ctx := o.Inject(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_, s := StartSpan(ctx, "cell")
			s.End()
		}
	}()
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := o.Tracer.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL during concurrent span ends: %v", err)
		}
		if _, err := ReadJSONL(&buf); err != nil {
			t.Fatalf("ReadJSONL of concurrent snapshot: %v", err)
		}
	}
	<-done
}

func TestHistogramConcurrentObserve(t *testing.T) {
	src := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				src.Observe(time.Duration(i%40) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if src.Count() != 8*500 {
		t.Fatalf("src count = %d, want %d", src.Count(), 8*500)
	}
	var bucketSum int64
	for _, n := range src.Buckets() {
		bucketSum += n
	}
	if bucketSum != src.Count() {
		t.Fatalf("src bucket sum %d != count %d", bucketSum, src.Count())
	}
}

func TestHistogramBucketIndex(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1000, 0},
		{1001, 1},
		{2000, 1},
		{histMinNs << (histBucketCount - 1), histBucketCount - 1},
		{histMinNs<<(histBucketCount-1) + 1, histBucketCount},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Gauge("g").Add(-1)
				r.Histogram("h").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8*200 {
		t.Fatalf("counter = %d, want %d", got, 8*200)
	}
	if got := r.Gauge("g").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := r.Histogram("h").Count(); got != 8*200 {
		t.Fatalf("histogram count = %d, want %d", got, 8*200)
	}
}

func TestGaugePeak(t *testing.T) {
	g := &Gauge{}
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if got := g.Value(); got != 1 {
		t.Fatalf("value = %d, want 1", got)
	}
	if got := g.Peak(); got != 5 {
		t.Fatalf("peak = %d, want 5", got)
	}
}

func TestPhaseStatsSelfTime(t *testing.T) {
	recs := []SpanRecord{
		{ID: 1, Name: "study", Path: "study", StartNs: 0, DurNs: 100},
		{ID: 2, Parent: 1, Name: "probe", Path: "study/probe", StartNs: 5, DurNs: 30},
		{ID: 3, Parent: 1, Name: "observe", Path: "study/observe", StartNs: 40, DurNs: 20},
		{ID: 4, Parent: 1, Name: "observe", Path: "study/observe", StartNs: 40, DurNs: 40},
		{ID: 5, Parent: 3, Name: "exec", Path: "study/observe/exec", StartNs: 41, DurNs: 10},
	}
	stats := PhaseStats(recs)
	byPath := map[string]PhaseStat{}
	for _, st := range stats {
		byPath[st.Path] = st
	}
	study := byPath["study"]
	if study.Count != 1 || study.TotalNs != 100 || study.SelfNs != 100-30-20-40 {
		t.Errorf("study stat = %+v", study)
	}
	obsStat := byPath["study/observe"]
	if obsStat.Count != 2 || obsStat.TotalNs != 60 || obsStat.SelfNs != 50 {
		t.Errorf("observe stat = %+v", obsStat)
	}
	if obsStat.MinNs != 20 || obsStat.MaxNs != 40 {
		t.Errorf("observe min/max = %d/%d, want 20/40", obsStat.MinNs, obsStat.MaxNs)
	}
	if len(stats) != 4 {
		t.Fatalf("got %d stats, want 4", len(stats))
	}
	for i := 1; i < len(stats); i++ {
		if stats[i-1].Path >= stats[i].Path {
			t.Fatalf("stats not sorted by path: %q before %q", stats[i-1].Path, stats[i].Path)
		}
	}
}

func TestPhaseStatsSelfClampedAtZero(t *testing.T) {
	// Concurrent children can sum past the parent's wall-clock.
	recs := []SpanRecord{
		{ID: 1, Name: "study", Path: "study", DurNs: 10},
		{ID: 2, Parent: 1, Name: "observe", Path: "study/observe", DurNs: 9},
		{ID: 3, Parent: 1, Name: "observe", Path: "study/observe", DurNs: 9},
	}
	stats := PhaseStats(recs)
	for _, st := range stats {
		if st.Path == "study" && st.SelfNs != 0 {
			t.Fatalf("study self = %d, want clamped 0", st.SelfNs)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	o := New()
	ctx := o.Inject(context.Background())
	ctx, root := StartSpan(ctx, "study")
	_, child := StartSpan(ctx, "probe")
	child.Annotate("machine", "ARL_Opteron")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := o.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := o.Tracer.Records()
	if len(got) != len(want) {
		t.Fatalf("round trip length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Path != want[i].Path || got[i].DurNs != want[i].DurNs {
			t.Errorf("record %d round trip mismatch: got %+v want %+v", i, got[i], want[i])
		}
	}
	if got[1].Attrs["machine"] != "ARL_Opteron" {
		t.Errorf("attrs lost in round trip: %+v", got[1].Attrs)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"id\":1}\nnot json\n")); err == nil {
		t.Fatal("want error for malformed span log line")
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("study_cells_completed_total").Add(4)
	r.Gauge("study_workers_busy").Add(3)
	r.Histogram("study_queue_wait_seconds").Observe(2 * time.Microsecond)
	r.Histogram("study_queue_wait_seconds").Observe(3 * time.Second)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE study_cells_completed_total counter",
		"study_cells_completed_total 4",
		"# TYPE study_workers_busy gauge",
		"study_workers_busy_peak 3",
		"# TYPE study_queue_wait_seconds histogram",
		"study_queue_wait_seconds_bucket{le=\"+Inf\"} 2",
		"study_queue_wait_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom dump missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative and end at the total count.
	if !strings.Contains(out, "study_queue_wait_seconds_bucket{le=\"1e-06\"} 0") {
		t.Errorf("prom histogram first bucket wrong:\n%s", out)
	}
}

func TestManifestComplete(t *testing.T) {
	m := NewManifest()
	m.Seed = "fnv1a-noise-amp=0.1"
	if err := m.Complete(); err != nil {
		t.Fatalf("fresh manifest incomplete: %v", err)
	}
	m.Seed = ""
	if err := m.Complete(); err == nil {
		t.Fatal("manifest without seed should be incomplete")
	}
	bad := Manifest{}
	if err := bad.Complete(); err == nil {
		t.Fatal("zero manifest should be incomplete")
	}
}

func TestManifestFileRoundTrip(t *testing.T) {
	m := NewManifest()
	m.Seed = "fnv1a-noise-amp=0.1"
	m.Options = map[string]any{"workers": 4}
	m.SpanFile = "spans.jsonl"
	path := t.TempDir() + "/manifest.json"
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Complete(); err != nil {
		t.Fatalf("round-tripped manifest incomplete: %v", err)
	}
	if got.SpanFile != "spans.jsonl" || got.GoVersion != m.GoVersion {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestPromHandler: the /metrics scrape endpoint serves the same text
// exposition as WriteProm, with the Prometheus content type, and a nil
// registry serves an empty exposition instead of panicking.
func TestPromHandler(t *testing.T) {
	o := New()
	o.Metrics.Counter("predictd_requests_total").Add(3)
	o.Metrics.Gauge("predictd_inflight").Add(1)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	o.Metrics.PromHandler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("scrape status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	var want bytes.Buffer
	if err := o.Metrics.WriteProm(&want); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != want.String() {
		t.Errorf("scrape body differs from WriteProm:\n%s\nvs\n%s", rec.Body.String(), want.String())
	}
	if !strings.Contains(rec.Body.String(), "predictd_requests_total 3") {
		t.Errorf("scrape missing counter sample:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	(*Registry)(nil).PromHandler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Errorf("nil registry scrape = %d %q, want empty 200", rec.Code, rec.Body.String())
	}
}
