package obs

import (
	"context"
	"strings"
	"testing"
)

// shardSpans runs a tiny parent/child span structure on a tracer with
// the given shard identity and returns its records.
func shardSpans(t *testing.T, name string, slot int) []SpanRecord {
	t.Helper()
	tr := NewTracer()
	tr.SetShard(name, slot)
	o := &Obs{Tracer: tr}
	ctx, root := StartSpan(o.Inject(context.Background()), "study")
	_, child := StartSpan(ctx, "observe")
	child.End()
	root.End()
	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	return recs
}

func TestSetShardPrefixesIDsAndStampsRecords(t *testing.T) {
	recs := shardSpans(t, "shard3", 3)
	for _, rec := range recs {
		if rec.Shard != "shard3" {
			t.Errorf("span %d shard = %q, want shard3", rec.ID, rec.Shard)
		}
		if rec.ID>>48 != 4 {
			t.Errorf("span %d not in slot 4's id range", rec.ID)
		}
	}
}

func TestSetShardNoop(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.SetShard("x", 0) // must not panic

	tr := NewTracer()
	tr.SetShard("x", -1)
	o := &Obs{Tracer: tr}
	_, s := StartSpan(o.Inject(context.Background()), "study")
	s.End()
	rec := tr.Records()[0]
	if rec.Shard != "" || rec.ID != 1 {
		t.Fatalf("negative slot changed identity: %+v", rec)
	}
}

func TestCheckShardedSpansAccepts(t *testing.T) {
	var spans []SpanRecord
	spans = append(spans, shardSpans(t, "shard0", 0)...)
	spans = append(spans, shardSpans(t, "shard1", 1)...)
	// Two journals of one shard written by separate processes, each
	// with its own slot.
	spans = append(spans, shardSpans(t, "shard0", 2)...)
	manifests := []Manifest{{Shard: "shard0"}, {Shard: "shard1"}, {Shard: "shard0"}}
	stats, err := CheckShardedSpans(spans, manifests)
	if err != nil {
		t.Fatalf("CheckShardedSpans: %v", err)
	}
	if stats.Spans != 6 || stats.Slots != 3 || stats.Shards["shard0"] != 4 || stats.Shards["shard1"] != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestCheckShardedSpansRejections(t *testing.T) {
	s0 := shardSpans(t, "shard0", 0)
	s1 := shardSpans(t, "shard1", 1)
	m := []Manifest{{Shard: "shard0"}, {Shard: "shard1"}}

	cases := []struct {
		name  string
		spans []SpanRecord
		mans  []Manifest
		want  string
	}{
		{"duplicate ids", append(append([]SpanRecord{}, s0...), s0...), []Manifest{{Shard: "shard0"}}, "duplicate span id"},
		{"undeclared shard", s0, []Manifest{{Shard: "other"}}, "no manifest declares"},
		{"manifest without spans", s0, m, "no spans in the log"},
		{"empty log", nil, m, "empty"},
		{"unnamed manifest", s0, []Manifest{{}}, "no shard name"},
	}
	for _, tc := range cases {
		if _, err := CheckShardedSpans(tc.spans, tc.mans); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	// No slot prefix: a worker that never called SetShard.
	bare := []SpanRecord{{ID: 1, Name: "study", Path: "study", Shard: "shard0"}}
	if _, err := CheckShardedSpans(bare, []Manifest{{Shard: "shard0"}}); err == nil || !strings.Contains(err.Error(), "slot prefix") {
		t.Errorf("bare ids: err = %v", err)
	}

	// Missing shard name on a span.
	anon := append([]SpanRecord{}, s0...)
	anon[0].Shard = ""
	if _, err := CheckShardedSpans(anon, []Manifest{{Shard: "shard0"}}); err == nil || !strings.Contains(err.Error(), "carries no shard name") {
		t.Errorf("anonymous span: err = %v", err)
	}

	// Cross-process parentage: a shard1 span claiming a shard0 parent.
	cross := append(append([]SpanRecord{}, s0...), s1...)
	for i := range cross {
		if cross[i].Shard == "shard1" && cross[i].Parent != 0 {
			cross[i].Parent = s0[0].ID
		}
	}
	if _, err := CheckShardedSpans(cross, m); err == nil || !strings.Contains(err.Error(), "crosses worker processes") {
		t.Errorf("cross parentage: err = %v", err)
	}

	// A slot shared by two shard names: a unique ID inside slot 1's
	// range, but claiming a different shard.
	shared := append(append([]SpanRecord{}, s0...),
		SpanRecord{ID: 1<<48 + 100, Name: "study", Path: "study", Shard: "shard1"})
	if _, err := CheckShardedSpans(shared, m); err == nil || !strings.Contains(err.Error(), "shared by shards") {
		t.Errorf("shared slot: err = %v", err)
	}
}
