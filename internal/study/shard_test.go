package study

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hpcmetrics/internal/faults"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/persist"
)

func TestShardValidateAndOwns(t *testing.T) {
	if err := (Shard{}).validate(); err != nil {
		t.Fatalf("zero shard: %v", err)
	}
	if (Shard{}).Enabled() {
		t.Fatal("zero shard claims enabled")
	}
	for _, bad := range []Shard{
		{Count: 1, Index: 0, Name: "x"}, // count too small but fields set
		{Count: 3, Index: 3},
		{Count: 3, Index: -1},
		{Count: 2, Index: 0, Name: "a;b"},
	} {
		if err := bad.validate(); err == nil {
			t.Errorf("shard %+v validated", bad)
		}
	}
	s := Shard{Index: 1, Count: 3}
	if s.Label() != "shard1" {
		t.Fatalf("Label = %q", s.Label())
	}
	for i := 0; i < 9; i++ {
		if got, want := s.owns(i), i%3 == 1; got != want {
			t.Errorf("owns(%d) = %t", i, got)
		}
	}
	if !(Shard{}).owns(7) {
		t.Fatal("disabled shard must own everything")
	}
}

// shardOpts returns the chaos slice restricted to one shard, journaling
// into dir.
func shardOpts(dir string, index, count int) Options {
	o := chaosSlice()
	o.Shard = Shard{Index: index, Count: count}
	o.CheckpointPath = filepath.Join(dir, o.Shard.Label()+".ckpt")
	return o
}

// TestShardedStudyMergesBitIdentical is the tentpole invariant: two
// shard workers each observe half the grid into their own journals, and
// the merge run reconstructs results deeply identical to a clean
// single-process run — without re-executing a single journaled cell.
// Then the chaos variants: a second journal duplicating shard0's slice
// must dedup harmlessly, and a mid-file-corrupted shard journal must be
// quarantined by name while the merge recomputes its units to the same
// bits.
func TestShardedStudyMergesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sharded study; skipped in -short")
	}
	clean, err := Run(chaosSlice())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for index := 0; index < 2; index++ {
		res, err := Run(shardOpts(dir, index, 2))
		if err != nil {
			t.Fatalf("shard %d: %v", index, err)
		}
		if len(res.Predictions) != 0 {
			t.Fatalf("shard %d computed predictions; that is the merge run's job", index)
		}
	}

	merged := chaosSlice()
	merged.CheckpointDir = dir
	merged.Obs = obs.New()
	mres, err := Run(merged)
	if err != nil {
		t.Fatalf("merge run: %v", err)
	}
	if n := execSpanCount(merged.Obs); n != 0 {
		t.Fatalf("merge run re-executed %d cells; every unit was journaled", n)
	}
	assertSameResults(t, clean, mres)
	if len(mres.Quarantined) != 0 || len(mres.MissingShards) != 0 {
		t.Fatalf("clean merge reported quarantined=%v missing=%v", mres.Quarantined, mres.MissingShards)
	}

	// A re-run shard's second journal: same slice identity, overlapping
	// records. First-record-wins dedup must make the duplication invisible.
	src, err := os.ReadFile(filepath.Join(dir, "shard0.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard0-rerun.ckpt"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	sres, err := Run(merged)
	if err != nil {
		t.Fatalf("merge with duplicate journal: %v", err)
	}
	assertSameResults(t, clean, sres)

	// Corrupt shard0's journal mid-file (records stranded beyond the bad
	// line) and drop the duplicate copy: the merge must quarantine it by
	// name, report slice 0 missing, recompute its units, and still land
	// on the same bits.
	if err := os.Remove(filepath.Join(dir, "shard0-rerun.ckpt")); err != nil {
		t.Fatal(err)
	}
	corrupt := corruptMidFile(t, filepath.Join(dir, "shard0.ckpt"))
	qopts := chaosSlice()
	qopts.CheckpointDir = dir
	qres, err := Run(qopts)
	if err != nil {
		t.Fatalf("merge with corrupt journal: %v", err)
	}
	if len(qres.Quarantined) != 1 || qres.Quarantined[0].Path != corrupt {
		t.Fatalf("quarantined = %+v, want %s", qres.Quarantined, corrupt)
	}
	if len(qres.MissingShards) != 1 || qres.MissingShards[0] != 0 {
		t.Fatalf("missing shards = %v, want [0]", qres.MissingShards)
	}
	assertSameResults(t, clean, qres)
}

// corruptMidFile flips a checksum digit on the journal's second record
// line, leaving intact records stranded after it, and returns path.
func corruptMidFile(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	if len(lines) < 5 { // header + >=3 records + trailing newline
		t.Fatalf("journal too small to corrupt mid-file: %d lines", len(lines))
	}
	s := lines[2]
	i := strings.Index(s, `"crc":"`) + len(`"crc":"`)
	flip := byte('0')
	if s[i] == '0' {
		flip = 'f'
	}
	lines[2] = s[:i] + string(flip) + s[i+1:]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func assertSameResults(t *testing.T, want, got *Results) {
	t.Helper()
	if !reflect.DeepEqual(want.Observed, got.Observed) {
		t.Fatal("observed times differ from the clean run")
	}
	if !reflect.DeepEqual(want.BaseTimes, got.BaseTimes) {
		t.Fatal("base times differ from the clean run")
	}
	if !reflect.DeepEqual(want.Predictions, got.Predictions) {
		t.Fatal("predictions differ from the clean run")
	}
	if !reflect.DeepEqual(want.Balanced, got.Balanced) {
		t.Fatal("balanced rating differs from the clean run")
	}
	if !reflect.DeepEqual(want.Skips, got.Skips) {
		t.Fatal("skips differ from the clean run")
	}
}

// TestShardJournalRejectsWrongSlice: a shard journal must never be
// resumable into a different slice — the shard identity is part of the
// options tag.
func TestShardJournalRejectsWrongSlice(t *testing.T) {
	dir := t.TempDir()
	right := shardOpts(dir, 0, 2)
	tag := right.optionsTag()
	if _, err := persist.CreateCheckpoint(right.CheckpointPath, tag); err != nil {
		t.Fatal(err)
	}

	wrong := right
	wrong.Shard.Index = 1
	wrong.Resume = true
	if _, err := Run(wrong); err == nil || !strings.Contains(err.Error(), "different options") {
		t.Fatalf("wrong-slice resume = %v, want different-options rejection", err)
	}

	// Sanity: the tag carries the shard suffix the persist layer parses.
	base, spec, sharded := persist.SplitShardTag(tag)
	if !sharded || spec.Index != 0 || spec.Count != 2 || base != right.baseTag() {
		t.Fatalf("SplitShardTag(%q) = %q %+v %t", tag, base, spec, sharded)
	}
}

// TestMergeRejectsMixedFaultPlans: journals from campaigns with
// different fault plans (or retry/timeout budgets — both live in the
// base tag) must not merge.
func TestMergeRejectsMixedFaultPlans(t *testing.T) {
	dir := t.TempDir()
	plain := chaosSlice()
	faulty := chaosSlice()
	faulty.MaxAttempts = 4
	faulty.Faults = faults.New(1, faults.Rule{
		Point: faults.PointExecBlock, Kind: faults.Transient, Rate: 1, Burst: 2,
	})

	for index, o := range []Options{plain, faulty} {
		o.Shard = Shard{Index: index, Count: 2}
		tag := o.optionsTag()
		if _, err := persist.CreateCheckpoint(filepath.Join(dir, o.Shard.Label()+".ckpt"), tag); err != nil {
			t.Fatal(err)
		}
	}

	merged := plain
	merged.CheckpointDir = dir
	if _, err := Run(merged); err == nil || !strings.Contains(err.Error(), "different options") {
		t.Fatalf("mixed-fault-plan merge = %v, want different-options rejection", err)
	}
}

func TestCheckpointDirOptionConflicts(t *testing.T) {
	o := chaosSlice()
	o.CheckpointDir = t.TempDir()
	o.CheckpointPath = filepath.Join(o.CheckpointDir, "x.ckpt")
	if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("dir+path = %v", err)
	}

	o = chaosSlice()
	o.CheckpointDir = t.TempDir()
	o.Shard = Shard{Index: 0, Count: 2}
	if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "merge run") {
		t.Fatalf("dir+shard = %v", err)
	}

	// A shard without a journal would run its slice and drop it.
	o = chaosSlice()
	o.Shard = Shard{Index: 0, Count: 2}
	if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "needs a CheckpointPath") {
		t.Fatalf("shard without journal = %v", err)
	}
}
