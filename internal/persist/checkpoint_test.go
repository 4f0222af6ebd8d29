package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func ckptPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "study.ckpt")
}

func mustAppend(t *testing.T, c *Checkpoint, rec CellRecord) {
	t.Helper()
	if err := c.Append(rec); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := ckptPath(t)
	c, err := CreateCheckpoint(path, "tag-a")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, c, CellRecord{Stage: StageProbe, Key: "ARL_Opteron", BaseSeconds: 0})
	mustAppend(t, c, CellRecord{
		Stage: StageCell, Key: "avus-standard@64",
		BaseSeconds: 1234.5678901234567,
		Observed:    map[string]float64{"ARL_Opteron": 99.25},
		Skips:       map[string]CheckpointSkip{"MHPCC_P3": {Reason: "error", Detail: "boom", Attempts: 3}},
	})

	r, err := OpenCheckpoint(path, "tag-a")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Dropped() != 0 {
		t.Fatalf("reopened Len=%d Dropped=%d, want 2, 0", r.Len(), r.Dropped())
	}
	rec, ok := r.Lookup(StageCell, "avus-standard@64")
	if !ok {
		t.Fatal("cell record missing after reopen")
	}
	// encoding/json round-trips float64 exactly; resumed results must be
	// bit-identical.
	if rec.BaseSeconds != 1234.5678901234567 || rec.Observed["ARL_Opteron"] != 99.25 {
		t.Errorf("numeric fields did not round-trip exactly: %+v", rec)
	}
	if s := rec.Skips["MHPCC_P3"]; s.Reason != "error" || s.Attempts != 3 {
		t.Errorf("skip did not round-trip: %+v", s)
	}
	if _, ok := r.Lookup(StageProbe, "nowhere"); ok {
		t.Error("Lookup invented a record")
	}
}

// TestCheckpointTornTailTruncated: a crash mid-line leaves a torn tail;
// reopening keeps the good prefix, reports the drop, and rewrites the
// file clean so the corruption cannot resurface.
func TestCheckpointTornTailTruncated(t *testing.T) {
	path := ckptPath(t)
	c, err := CreateCheckpoint(path, "")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, c, CellRecord{Stage: StageProbe, Key: "good"})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, raw...), []byte(`{"record":{"stage":"cell","key":"to`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenCheckpoint(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d, want 1, 1", r.Len(), r.Dropped())
	}
	if _, ok := r.Lookup(StageProbe, "good"); !ok {
		t.Error("good prefix record lost")
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean, raw) {
		t.Error("reopen did not rewrite the journal back to its good prefix")
	}
}

// TestCheckpointBadChecksumDropped: a record whose payload no longer
// matches its CRC — flipped bits — is discarded along with everything
// after it.
func TestCheckpointBadChecksumDropped(t *testing.T) {
	path := ckptPath(t)
	c, err := CreateCheckpoint(path, "")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, c, CellRecord{Stage: StageProbe, Key: "first"})
	mustAppend(t, c, CellRecord{Stage: StageCell, Key: "second"})
	mustAppend(t, c, CellRecord{Stage: StageCell, Key: "third"})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the second record without touching its CRC.
	mangled := strings.Replace(string(raw), `"key":"second"`, `"key":"seconX"`, 1)
	if mangled == string(raw) {
		t.Fatal("test setup: second record not found in journal")
	}
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenCheckpoint(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d, want 1 kept and the rest dropped", r.Len(), r.Dropped())
	}
	if _, ok := r.Lookup(StageCell, "third"); ok {
		t.Error("record after the corrupt line survived; trust must end at the first bad line")
	}
}

func TestCheckpointHeaderGuards(t *testing.T) {
	t.Run("wrong-version", func(t *testing.T) {
		path := ckptPath(t)
		if err := os.WriteFile(path, []byte(`{"format":"hpcmetrics-checkpoint","version":999}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(path, ""); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("wrong version opened with err=%v, want version error", err)
		}
	})
	t.Run("wrong-format", func(t *testing.T) {
		path := ckptPath(t)
		if err := os.WriteFile(path, []byte(`{"format":"something-else","version":1}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(path, ""); err == nil {
			t.Error("wrong format opened cleanly")
		}
	})
	t.Run("not-json", func(t *testing.T) {
		path := ckptPath(t)
		if err := os.WriteFile(path, []byte("not a checkpoint\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(path, ""); err == nil {
			t.Error("garbage header opened cleanly")
		}
	})
	t.Run("tag-mismatch", func(t *testing.T) {
		path := ckptPath(t)
		if _, err := CreateCheckpoint(path, "apps=a;targets=x"); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(path, "apps=b;targets=y"); err == nil || !strings.Contains(err.Error(), "different options") {
			t.Errorf("tag mismatch opened with err=%v, want options error", err)
		}
	})
	t.Run("missing-file-creates", func(t *testing.T) {
		path := ckptPath(t)
		r, err := OpenCheckpoint(path, "t")
		if err != nil || r.Len() != 0 {
			t.Fatalf("OpenCheckpoint on missing file = (%v, Len %d), want fresh journal", err, r.Len())
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("fresh journal not written: %v", err)
		}
	})
}

func TestCheckpointDuplicateFirstWins(t *testing.T) {
	c, err := CreateCheckpoint(ckptPath(t), "")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, c, CellRecord{Stage: StageCell, Key: "k", BaseSeconds: 1})
	mustAppend(t, c, CellRecord{Stage: StageCell, Key: "k", BaseSeconds: 2})
	if c.Len() != 1 {
		t.Fatalf("Len = %d after duplicate append, want 1", c.Len())
	}
	rec, _ := c.Lookup(StageCell, "k")
	if rec.BaseSeconds != 1 {
		t.Errorf("duplicate append replaced the first record: %+v", rec)
	}

	// Append never writes a duplicate, but a journal on disk may hold
	// one (hand-edited or concatenated); reopening it keeps the first.
	path := ckptPath(t)
	if _, err := CreateCheckpoint(path, ""); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1, 2} {
		line, err := encodeRecord(CellRecord{Stage: StageCell, Key: "k", BaseSeconds: v})
		if err != nil {
			t.Fatal(err)
		}
		raw = append(append(raw, line...), '\n')
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenCheckpoint(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d after reopening a duplicate, want 1", r.Len())
	}
	if rec, _ := r.Lookup(StageCell, "k"); rec.BaseSeconds != 1 {
		t.Errorf("reopen let the later duplicate win: %+v", rec)
	}
}

// TestCheckpointConcurrentAppendAndOpen races writers against readers of
// the same path: writeAtomic's rename means a concurrent open sees a
// complete journal prefix, never a partial record.
func TestCheckpointConcurrentAppendAndOpen(t *testing.T) {
	path := ckptPath(t)
	c, err := CreateCheckpoint(path, "race")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := string(rune('a'+w)) + "-" + string(rune('0'+i%10))
				if err := c.Append(CellRecord{Stage: StageCell, Key: key, BaseSeconds: float64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				rc, err := OpenCheckpoint(path, "race")
				if err != nil {
					t.Error(err)
					return
				}
				if rc.Dropped() != 0 {
					t.Errorf("concurrent reader saw %d corrupt lines; atomic rename must prevent torn reads", rc.Dropped())
					return
				}
			}
		}()
	}
	wg.Wait()

	final, err := OpenCheckpoint(path, "race")
	if err != nil {
		t.Fatal(err)
	}
	if final.Len() != 40 || final.Dropped() != 0 {
		t.Errorf("final journal Len=%d Dropped=%d, want 40 distinct keys, 0 dropped", final.Len(), final.Dropped())
	}
}

// TestSaveLeavesNoTempFiles: the rename consumes writeAtomic's temp
// file; failure paths remove it. After a create and a few appends the
// directory holds exactly the journal.
func TestSaveLeavesNoTempFiles(t *testing.T) {
	path := ckptPath(t)
	c, err := CreateCheckpoint(path, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b", "c"} {
		mustAppend(t, c, CellRecord{Stage: StageCell, Key: key})
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after create and appends: %v", names)
	}
}

func TestCheckpointNilSafe(t *testing.T) {
	var c *Checkpoint
	if err := c.Append(CellRecord{Stage: StageCell, Key: "k"}); err != nil {
		t.Errorf("nil Append = %v, want nil", err)
	}
	if _, ok := c.Lookup(StageCell, "k"); ok {
		t.Error("nil Lookup found a record")
	}
	if c.Len() != 0 || c.Dropped() != 0 || c.Path() != "" {
		t.Error("nil accessors must read zero values")
	}
}

func TestCheckpointAppendValidates(t *testing.T) {
	c, err := CreateCheckpoint(ckptPath(t), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(CellRecord{Stage: StageCell}); err == nil {
		t.Error("Append accepted a record without a key")
	}
	if err := c.Append(CellRecord{Key: "k"}); err == nil {
		t.Error("Append accepted a record without a stage")
	}
}

// writeJournal creates a journal with the given records and returns its
// path.
func writeJournal(t *testing.T, records ...CellRecord) string {
	t.Helper()
	path := ckptPath(t)
	cp, err := CreateCheckpoint(path, "tag")
	if err != nil {
		t.Fatalf("CreateCheckpoint: %v", err)
	}
	for _, rec := range records {
		mustAppend(t, cp, rec)
	}
	return path
}

// corruptLine flips a checksum hex digit on the given 1-based line (the
// header is line 1, so record n is line n+1).
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
	path := writeJournal(t,
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
	if info.Tag != "tag" || info.Format != formatCheckpoint || info.Version != FormatVersion {
		t.Fatalf("Inspect header fields = %+v", info)
	}
	if info.LastKey != StageCell+" avus|32" {
		t.Fatalf("LastKey = %q", info.LastKey)
	}
}

func TestInspectTornTailVsCorrupt(t *testing.T) {
	recs := []CellRecord{
		{Stage: StageProbe, Key: "a"},
		{Stage: StageProbe, Key: "b"},
		{Stage: StageProbe, Key: "c"},
	}

	torn := writeJournal(t, recs...)
	corruptLine(t, torn, 4) // last record: nothing decodable after
	info, err := Inspect(torn)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != JournalTornTail || info.Records != 2 || info.BadLine != 4 || info.Stranded != 0 {
		t.Fatalf("torn-tail Inspect = %+v", info)
	}

	corrupt := writeJournal(t, recs...)
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
	path := ckptPath(t)
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Inspect(path); err == nil || !strings.Contains(err.Error(), "not a checkpoint") {
		t.Fatalf("Inspect on junk = %v, want not-a-checkpoint error", err)
	}
}

// FuzzOpenCheckpoint feeds arbitrary bytes to the journal reader. Neither
// Inspect nor OpenCheckpoint may panic; a journal with a valid header
// reopens with one record per distinct trusted key, and the file it
// leaves behind inspects clean.
func FuzzOpenCheckpoint(f *testing.F) {
	// The seed corpus lives in testdata/fuzz/FuzzOpenCheckpoint: a clean
	// journal, a torn tail, mid-file corruption, a duplicate key, junk.
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := ckptPath(t)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		info, inspectErr := Inspect(path)
		scan, scanErr := scanJournal(raw)
		if (inspectErr == nil) != (scanErr == nil) {
			t.Fatalf("Inspect err=%v but scan err=%v", inspectErr, scanErr)
		}
		tag := ""
		if info != nil {
			tag = info.Tag
		}
		c, err := OpenCheckpoint(path, tag)
		if info == nil || info.Format != formatCheckpoint || info.Version != FormatVersion {
			return // not a checkpoint this build reads; only no-panic is owed
		}
		if err != nil {
			t.Fatalf("OpenCheckpoint on a valid header: %v", err)
		}
		if info.Records != len(scan.records) {
			t.Fatalf("Inspect Records=%d, scan trusted %d", info.Records, len(scan.records))
		}
		keys := make(map[string]bool)
		for _, rec := range scan.records {
			keys[rec.Stage+"|"+rec.Key] = true
		}
		if c.Len() != len(keys) {
			t.Fatalf("reopened Len=%d, want %d distinct trusted keys", c.Len(), len(keys))
		}
		after, err := Inspect(path)
		if err != nil {
			t.Fatalf("re-inspect after open: %v", err)
		}
		if after.Status != JournalClean {
			t.Fatalf("journal after open inspects %s, want clean", after.Status)
		}
	})
}
