package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestShardTagRoundTrip(t *testing.T) {
	base := "apps=all;targets=all;noise=true"
	spec := ShardSpec{Index: 2, Count: 5, Name: "shard2"}
	tag := ShardTag(base, spec)
	if !strings.HasPrefix(tag, base) {
		t.Fatalf("ShardTag(%q) = %q, want base prefix", base, tag)
	}
	gotBase, gotSpec, sharded := SplitShardTag(tag)
	if !sharded || gotBase != base || gotSpec != spec {
		t.Fatalf("SplitShardTag(%q) = %q, %+v, %t", tag, gotBase, gotSpec, sharded)
	}
}

func TestShardTagUnshardedPassthrough(t *testing.T) {
	base := "apps=all;targets=all"
	if got := ShardTag(base, ShardSpec{Count: 1}); got != base {
		t.Fatalf("unsharded ShardTag = %q, want %q", got, base)
	}
	gotBase, _, sharded := SplitShardTag(base)
	if sharded || gotBase != base {
		t.Fatalf("SplitShardTag(%q) = %q, sharded=%t", base, gotBase, sharded)
	}
}

func TestSplitShardTagMalformed(t *testing.T) {
	for _, tag := range []string{
		"base;shard=",
		"base;shard=1/2",    // no name
		"base;shard=x/2/a",  // non-numeric index
		"base;shard=1/x/a",  // non-numeric count
		"base;shard=2/2/a",  // index out of range
		"base;shard=0/1/a",  // count < 2
		"base;shard=-1/3/a", // negative index
	} {
		gotBase, _, sharded := SplitShardTag(tag)
		if sharded {
			t.Errorf("SplitShardTag(%q) claimed a shard suffix", tag)
		}
		if gotBase != tag {
			t.Errorf("SplitShardTag(%q) base = %q, want whole tag back", tag, gotBase)
		}
	}
}

// writeJournal creates a journal with the given tag and records, then
// returns its path and raw bytes.
func writeJournal(t *testing.T, dir, name, tag string, records ...CellRecord) string {
	t.Helper()
	path := filepath.Join(dir, name)
	cp, err := CreateCheckpoint(path, tag)
	if err != nil {
		t.Fatalf("CreateCheckpoint: %v", err)
	}
	for _, rec := range records {
		if err := cp.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	return path
}

// corruptLine flips a checksum hex digit on the given 1-based record
// line (the header is line 1, so record n is line n+1).
func corruptLine(t *testing.T, path string, line int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	if line-1 >= len(lines) {
		t.Fatalf("journal has %d lines, cannot corrupt line %d", len(lines), line)
	}
	s := lines[line-1]
	i := strings.Index(s, `"crc":"`)
	if i < 0 {
		t.Fatalf("line %d has no crc field: %s", line, s)
	}
	pos := i + len(`"crc":"`)
	flip := byte('0')
	if s[pos] == '0' {
		flip = 'f'
	}
	lines[line-1] = s[:pos] + string(flip) + s[pos+1:]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestInspectClean(t *testing.T) {
	dir := t.TempDir()
	tag := ShardTag("base-opts", ShardSpec{Index: 1, Count: 3, Name: "shard1"})
	path := writeJournal(t, dir, "shard1.ckpt", tag,
		CellRecord{Stage: StageProbe, Key: "ARL_Opteron"},
		CellRecord{Stage: StageCell, Key: "avus|32", Observed: map[string]float64{"ARL_Opteron": 1.5}},
	)
	info, err := Inspect(path)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if info.Status != JournalClean || info.Records != 2 || info.Probes != 1 || info.Cells != 1 {
		t.Fatalf("Inspect = %+v, want clean with 1 probe + 1 cell", info)
	}
	if info.BaseTag != "base-opts" || !info.Sharded || info.Shard.Index != 1 || info.Shard.Count != 3 {
		t.Fatalf("Inspect shard fields = %+v", info)
	}
	if info.LastKey != StageCell+" avus|32" {
		t.Fatalf("LastKey = %q", info.LastKey)
	}
}

func TestInspectTornTailVsCorrupt(t *testing.T) {
	dir := t.TempDir()
	recs := []CellRecord{
		{Stage: StageProbe, Key: "a"},
		{Stage: StageProbe, Key: "b"},
		{Stage: StageProbe, Key: "c"},
	}

	torn := writeJournal(t, dir, "torn.ckpt", "tag", recs...)
	corruptLine(t, torn, 4) // last record: nothing decodable after
	info, err := Inspect(torn)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != JournalTornTail || info.Records != 2 || info.BadLine != 4 || info.Stranded != 0 {
		t.Fatalf("torn-tail Inspect = %+v", info)
	}

	corrupt := writeJournal(t, dir, "corrupt.ckpt", "tag", recs...)
	corruptLine(t, corrupt, 3) // middle record: one intact record stranded
	info, err = Inspect(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != JournalCorrupt || info.Records != 1 || info.BadLine != 3 || info.Stranded != 1 {
		t.Fatalf("corrupt Inspect = %+v", info)
	}

	// Inspect must not have rewritten either file.
	raw, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimRight(string(raw), "\n"), "\n")); got != 4 {
		t.Fatalf("Inspect rewrote the journal: %d lines left, want 4", got)
	}
}

func TestInspectNotACheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "noise.ckpt")
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Inspect(path); err == nil || !strings.Contains(err.Error(), "not a checkpoint") {
		t.Fatalf("Inspect on junk = %v, want not-a-checkpoint error", err)
	}
}

func TestMergeCheckpointsFirstRecordWins(t *testing.T) {
	dir := t.TempDir()
	base := "opts"
	writeJournal(t, dir, "shard0.ckpt", ShardTag(base, ShardSpec{0, 2, "shard0"}),
		CellRecord{Stage: StageProbe, Key: "a", Observed: map[string]float64{"v": 1}},
		CellRecord{Stage: StageCell, Key: "x|8"},
	)
	// A second journal of the same slice, as a by-hand re-run into a new
	// file leaves: duplicate records plus one the first never reached.
	writeJournal(t, dir, "shard0-rerun.ckpt", ShardTag(base, ShardSpec{0, 2, "shard0"}),
		CellRecord{Stage: StageProbe, Key: "a", Observed: map[string]float64{"v": 1}},
		CellRecord{Stage: StageCell, Key: "y|8"},
	)
	writeJournal(t, dir, "shard1.ckpt", ShardTag(base, ShardSpec{1, 2, "shard1"}),
		CellRecord{Stage: StageProbe, Key: "b"},
	)
	m, err := MergeCheckpoints(dir, base)
	if err != nil {
		t.Fatalf("MergeCheckpoints: %v", err)
	}
	if len(m.Records) != 4 {
		t.Fatalf("merged %d records, want 4 (dedup): %+v", len(m.Records), m.Records)
	}
	if m.ShardCount != 2 || len(m.MissingShards) != 0 || len(m.Quarantined) != 0 {
		t.Fatalf("merge shape = count %d, missing %v, quarantined %v", m.ShardCount, m.MissingShards, m.Quarantined)
	}
	if len(m.Journals) != 3 {
		t.Fatalf("accepted %d journals, want 3", len(m.Journals))
	}
}

func TestMergeCheckpointsQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	base := "opts"
	writeJournal(t, dir, "shard0.ckpt", ShardTag(base, ShardSpec{0, 2, "shard0"}),
		CellRecord{Stage: StageProbe, Key: "a"},
	)
	bad := writeJournal(t, dir, "shard1.ckpt", ShardTag(base, ShardSpec{1, 2, "shard1"}),
		CellRecord{Stage: StageProbe, Key: "b"},
		CellRecord{Stage: StageProbe, Key: "c"},
		CellRecord{Stage: StageProbe, Key: "d"},
	)
	corruptLine(t, bad, 3) // mid-file: stranded records beyond
	m, err := MergeCheckpoints(dir, base)
	if err != nil {
		t.Fatalf("MergeCheckpoints: %v", err)
	}
	if len(m.Quarantined) != 1 || m.Quarantined[0].Path != bad {
		t.Fatalf("quarantined = %+v, want %s", m.Quarantined, bad)
	}
	if !strings.Contains(m.Quarantined[0].Reason, "corrupt") {
		t.Fatalf("quarantine reason = %q", m.Quarantined[0].Reason)
	}
	if len(m.MissingShards) != 1 || m.MissingShards[0] != 1 {
		t.Fatalf("missing shards = %v, want [1]", m.MissingShards)
	}
	if len(m.Records) != 1 {
		t.Fatalf("merged %d records, want only shard0's", len(m.Records))
	}
}

func TestMergeCheckpointsTornTailAccepted(t *testing.T) {
	dir := t.TempDir()
	base := "opts"
	torn := writeJournal(t, dir, "shard0.ckpt", ShardTag(base, ShardSpec{0, 2, "shard0"}),
		CellRecord{Stage: StageProbe, Key: "a"},
		CellRecord{Stage: StageProbe, Key: "b"},
	)
	corruptLine(t, torn, 3) // tail record only: torn, not corrupt
	writeJournal(t, dir, "shard1.ckpt", ShardTag(base, ShardSpec{1, 2, "shard1"}),
		CellRecord{Stage: StageProbe, Key: "c"},
	)
	m, err := MergeCheckpoints(dir, base)
	if err != nil {
		t.Fatalf("MergeCheckpoints: %v", err)
	}
	if len(m.Quarantined) != 0 {
		t.Fatalf("torn tail was quarantined: %+v", m.Quarantined)
	}
	if len(m.Records) != 2 {
		t.Fatalf("merged %d records, want good prefix (1) + shard1 (1)", len(m.Records))
	}
}

func TestMergeCheckpointsRejectsMixedOptions(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, "shard0.ckpt", ShardTag("opts;faults=planA", ShardSpec{0, 2, "shard0"}),
		CellRecord{Stage: StageProbe, Key: "a"},
	)
	writeJournal(t, dir, "shard1.ckpt", ShardTag("opts;faults=planB", ShardSpec{1, 2, "shard1"}),
		CellRecord{Stage: StageProbe, Key: "b"},
	)
	_, err := MergeCheckpoints(dir, "opts;faults=planA")
	if err == nil || !strings.Contains(err.Error(), "different options") {
		t.Fatalf("mixed-options merge = %v, want different-options rejection", err)
	}
}

func TestMergeCheckpointsRejectsMixedShardCounts(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, "shard0.ckpt", ShardTag("opts", ShardSpec{0, 2, "shard0"}),
		CellRecord{Stage: StageProbe, Key: "a"},
	)
	writeJournal(t, dir, "shard1.ckpt", ShardTag("opts", ShardSpec{1, 3, "shard1"}),
		CellRecord{Stage: StageProbe, Key: "b"},
	)
	if _, err := MergeCheckpoints(dir, "opts"); err == nil || !strings.Contains(err.Error(), "slices the grid") {
		t.Fatalf("mixed-count merge = %v, want slice-mismatch rejection", err)
	}
}

func TestMergeCheckpointsEmptyDir(t *testing.T) {
	if _, err := MergeCheckpoints(t.TempDir(), "opts"); err == nil || !strings.Contains(err.Error(), "no shard journals") {
		t.Fatalf("empty-dir merge = %v", err)
	}
}

func TestSeedCheckpointMemoryOnly(t *testing.T) {
	cp, err := SeedCheckpoint("", "tag", []CellRecord{
		{Stage: StageProbe, Key: "a"},
		{Stage: StageProbe, Key: "a"}, // duplicate seed: first wins
		{Stage: StageCell, Key: "x|8", BaseSeconds: 2.5},
	})
	if err != nil {
		t.Fatalf("SeedCheckpoint: %v", err)
	}
	if cp.Len() != 2 || cp.Path() != "" {
		t.Fatalf("seeded len=%d path=%q", cp.Len(), cp.Path())
	}
	if rec, ok := cp.Lookup(StageCell, "x|8"); !ok || rec.BaseSeconds != 2.5 {
		t.Fatalf("Lookup seeded cell = %+v, %t", rec, ok)
	}
	if err := cp.Append(CellRecord{Stage: StageCell, Key: "y|8"}); err != nil {
		t.Fatalf("memory-only Append: %v", err)
	}
	if cp.Len() != 3 {
		t.Fatalf("len after append = %d", cp.Len())
	}
}

func TestSeedCheckpointPersisted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "merged.ckpt")
	cp, err := SeedCheckpoint(path, "tag", []CellRecord{{Stage: StageProbe, Key: "a"}})
	if err != nil {
		t.Fatalf("SeedCheckpoint: %v", err)
	}
	if err := cp.Append(CellRecord{Stage: StageCell, Key: "x|8"}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	re, err := OpenCheckpoint(path, "tag")
	if err != nil {
		t.Fatalf("OpenCheckpoint on seeded journal: %v", err)
	}
	if re.Len() != 2 || re.Dropped() != 0 {
		t.Fatalf("reopened len=%d dropped=%d", re.Len(), re.Dropped())
	}
}
