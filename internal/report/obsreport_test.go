package report

import (
	"reflect"
	"testing"
	"time"

	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/study"
)

// TestPhaseTableGolden pins the flame summary byte-for-byte over a
// synthetic span log with fixed durations: the -trace table is
// deterministic modulo the timestamps themselves.
func TestPhaseTableGolden(t *testing.T) {
	recs := []obs.SpanRecord{
		{ID: 1, Name: "study", Path: "study", StartNs: 0, DurNs: 10_000_000_000},
		{ID: 2, Parent: 1, Name: "observe", Path: "study/observe", StartNs: 1_000_000_000, DurNs: 3_000_000_000},
		{ID: 3, Parent: 1, Name: "observe", Path: "study/observe", StartNs: 4_000_000_000, DurNs: 3_000_000_000},
		{ID: 4, Parent: 2, Name: "trace", Path: "study/observe/trace", StartNs: 1_500_000_000, DurNs: 1_000_000_000},
	}
	got := PhaseTable(obs.PhaseStats(recs)).CSV()
	want := "Phase,Count,Total(s),Self(s),Self(%)\n" +
		"study,1,10.000,4.000,40.0\n" +
		"  observe,2,6.000,5.000,50.0\n" +
		"    trace,1,1.000,1.000,10.0\n"
	if got != want {
		t.Errorf("PhaseTable CSV = \n%s\nwant:\n%s", got, want)
	}
}

// TestPhaseTableAggregatesAcrossRoots feeds PhaseTable one log holding
// two root spans, each with its own child, and pins the flame summary:
// paths aggregate across roots (one row per path, counts and totals
// summed), and each child's self time is charged to its own parent.
func TestPhaseTableAggregatesAcrossRoots(t *testing.T) {
	recs := []obs.SpanRecord{
		{ID: 1, Name: "study", Path: "study", DurNs: 10_000_000_000},
		{ID: 2, Parent: 1, Name: "observe", Path: "study/observe", DurNs: 4_000_000_000},
		{ID: 3, Name: "study", Path: "study", DurNs: 10_000_000_000},
		{ID: 4, Parent: 3, Name: "observe", Path: "study/observe", DurNs: 6_000_000_000},
	}
	got := PhaseTable(obs.PhaseStats(recs)).CSV()
	want := "Phase,Count,Total(s),Self(s),Self(%)\n" +
		"study,2,20.000,10.000,50.0\n" +
		"  observe,2,10.000,10.000,50.0\n"
	if got != want {
		t.Errorf("aggregated PhaseTable CSV = \n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryTableGolden(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("cells_total").Add(6)
	r.Gauge("workers_busy").Add(3)
	r.Gauge("workers_busy").Add(-2)
	r.Histogram("wait_seconds").Observe(250 * time.Millisecond)
	r.Histogram("wait_seconds").Observe(750 * time.Millisecond)
	got := RegistryTable(r.Snapshot()).CSV()
	want := "Metric,Kind,Value\n" +
		"cells_total,counter,6\n" +
		"workers_busy,gauge,1 (peak 3)\n" +
		"wait_seconds,histogram,n=2 mean=0.500000s sum=1.000s\n"
	if got != want {
		t.Errorf("RegistryTable CSV = \n%s\nwant:\n%s", got, want)
	}
}

func TestSkipTable(t *testing.T) {
	res := fixture()
	k := res.Cells[1]
	res.Skips = map[study.Key]map[string]study.Skip{
		k: {"SYS_B": {Reason: study.SkipTooLarge, Detail: "64 cpus exceed system size", Attempts: 1}},
	}
	tab := SkipTable(res)
	if len(tab.Rows) != 1 {
		t.Fatalf("skip rows = %d, want 1", len(tab.Rows))
	}
	want := []string{k.String(), "SYS_B", "job-too-large", "1", "64 cpus exceed system size"}
	if !reflect.DeepEqual(tab.Rows[0], want) {
		t.Errorf("skip row = %v, want %v", tab.Rows[0], want)
	}
}

// TestObservedTableMarksErrors distinguishes the paper's expected blanks
// (job too large, rendered "--") from observations lost to a failure
// (rendered "ERR").
func TestObservedTableMarksErrors(t *testing.T) {
	res := fixture()
	k := res.Cells[1]
	res.Skips = map[study.Key]map[string]study.Skip{
		k: {"SYS_B": {Reason: study.SkipError, Detail: "simulated exec fault"}},
	}
	tab, err := ObservedTable(res, "avus-standard")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[0] != "SYS_B" {
			continue
		}
		if got := row[len(row)-1]; got != "ERR" {
			t.Errorf("SYS_B @ 64 CPUs renders %q, want ERR", got)
		}
		return
	}
	t.Fatal("no SYS_B row in observed table")
}
