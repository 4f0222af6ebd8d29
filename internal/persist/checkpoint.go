// Checkpoint format: the study's crash-recovery journal.
//
// A checkpoint is a line-delimited file — one JSON header line followed
// by one JSON line per completed unit of study work (a probed machine or
// an observed cell). Each record line carries a CRC-32 checksum of its
// payload, so a file torn by a crash or a concurrent reader is detected
// at the first bad line and truncated back to the good prefix rather
// than misread; the header carries the same format/version guard as the
// rest of the package plus a tag fingerprinting the study options, so a
// resume against a checkpoint from a different study fails loudly.
// Every write goes through writeAtomic: a reader sees either the old
// complete journal or the new one, never a half-appended record.

package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"hpcmetrics/internal/probes"
	"hpcmetrics/internal/trace"
)

const formatCheckpoint = "hpcmetrics-checkpoint"

// Record stages: a probed machine, or a fully observed cell.
const (
	StageProbe = "probe"
	StageCell  = "cell"
)

// CheckpointSkip mirrors study.Skip without importing internal/study
// (study imports persist, not the other way around).
type CheckpointSkip struct {
	Reason   string `json:"reason"`
	Detail   string `json:"detail,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
}

// CellRecord is one completed unit of study work. Stage selects which
// fields are meaningful: StageProbe carries Probes for the machine named
// by Key; StageCell carries the cell's base time, trace, per-target
// observations, and skips. A cell that failed outright (nil Trace, only
// Skips) is still a completed unit — resuming must not retry it.
type CellRecord struct {
	Stage       string                    `json:"stage"`
	Key         string                    `json:"key"`
	Probes      *probes.Results           `json:"probes,omitempty"`
	BaseSeconds float64                   `json:"base_seconds,omitempty"`
	Trace       *trace.Trace              `json:"trace,omitempty"`
	Observed    map[string]float64        `json:"observed,omitempty"`
	Skips       map[string]CheckpointSkip `json:"skips,omitempty"`
}

// checkpointHeader is the journal's first line.
type checkpointHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Tag     string `json:"tag,omitempty"`
}

// recordLine wraps one record with its checksum.
type recordLine struct {
	Record json.RawMessage `json:"record"`
	CRC    string          `json:"crc"`
}

// Checkpoint is an append-only journal of completed study work. All
// methods are safe for concurrent use and nil-safe: a nil *Checkpoint
// (no checkpointing configured) looks up nothing and appends nowhere,
// so call sites stay unconditional.
type Checkpoint struct {
	path string
	tag  string

	mu      sync.Mutex
	data    []byte         // guarded by mu; the serialized journal
	records []CellRecord   // guarded by mu
	index   map[string]int // guarded by mu; stage|key → records index
	dropped int            // guarded by mu; 1 if open truncated a bad tail
}

// CreateCheckpoint starts a fresh journal at path, replacing any
// existing file.
func CreateCheckpoint(path, tag string) (*Checkpoint, error) {
	hdr, err := json.Marshal(checkpointHeader{Format: formatCheckpoint, Version: FormatVersion, Tag: tag})
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	data := append(hdr, '\n')
	if err := writeAtomic(path, data); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return &Checkpoint{path: path, tag: tag, data: data, index: make(map[string]int)}, nil
}

// journalScan is a parsed journal: the header, the trustworthy record
// prefix, and what (if anything) broke the trust. Trust ends at the
// first undecodable record line; Stranded counts record lines that still
// decode *after* that point, which is how mid-file corruption (flipped
// bits with intact records beyond) is told apart from a torn tail (a
// crash mid-append leaves nothing decodable after the break).
type journalScan struct {
	hdr      checkpointHeader
	records  []CellRecord
	goodData []byte // header + good-prefix record lines, newline-terminated
	badLine  int    // 1-based line number of the first bad record line; 0 = clean
	stranded int    // decodable record lines after badLine
}

// scanJournal parses raw journal bytes. It errors only when the header
// line is not JSON at all; format/version/tag policy stays with callers.
func scanJournal(raw []byte) (journalScan, error) {
	lines := bytes.Split(raw, []byte("\n"))
	var s journalScan
	if len(lines) == 0 || json.Unmarshal(lines[0], &s.hdr) != nil {
		return s, fmt.Errorf("no checkpoint header")
	}
	s.goodData = append(append([]byte{}, lines[0]...), '\n')
	for i, line := range lines[1:] {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec, ok := decodeRecord(line)
		switch {
		case !ok && s.badLine == 0:
			s.badLine = i + 2 // 1-based; the header is line 1
		case !ok:
		case s.badLine != 0:
			s.stranded++
		default:
			s.records = append(s.records, rec)
			s.goodData = append(append(s.goodData, line...), '\n')
		}
	}
	return s, nil
}

// OpenCheckpoint loads the journal at path for resuming. A missing file
// starts a fresh journal; a header with the wrong format, version, or
// tag is an error; a torn or corrupt record truncates the journal back
// to its good prefix (the file is rewritten clean). Dropped reports
// whether that happened. Use Inspect to triage a journal — including
// telling a torn tail from mid-file corruption — without rewriting it.
func OpenCheckpoint(path, tag string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return CreateCheckpoint(path, tag)
	}
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	scan, err := scanJournal(raw)
	if err != nil {
		return nil, fmt.Errorf("persist: %s is not a checkpoint file", path)
	}
	hdr := scan.hdr
	if hdr.Format != formatCheckpoint {
		return nil, fmt.Errorf("persist: %s holds %q, want %q", path, hdr.Format, formatCheckpoint)
	}
	if hdr.Version != FormatVersion {
		return nil, fmt.Errorf("persist: %s is checkpoint version %d, this build reads %d", path, hdr.Version, FormatVersion)
	}
	if hdr.Tag != tag {
		return nil, fmt.Errorf("persist: checkpoint %s was written by a study with different options (tag %q, want %q)",
			path, hdr.Tag, tag)
	}
	// First record wins, as in Append: a duplicate key (which Append
	// never writes, but a hand-edited or concatenated journal may hold)
	// is neither indexed nor counted.
	index := make(map[string]int, len(scan.records))
	var records []CellRecord
	for _, rec := range scan.records {
		if _, dup := index[rec.Stage+"|"+rec.Key]; dup {
			continue
		}
		index[rec.Stage+"|"+rec.Key] = len(records)
		records = append(records, rec)
	}
	var dropped int
	if scan.badLine > 0 {
		// Torn tail or flipped bits: everything from the first bad line
		// on is untrustworthy. Rewrite the journal back to its good
		// prefix so the corruption cannot resurface.
		dropped = 1
		if err := writeAtomic(path, scan.goodData); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
	}
	return &Checkpoint{path: path, tag: tag, data: scan.goodData, records: records, index: index, dropped: dropped}, nil
}

// decodeRecord parses one journal line, verifying its checksum.
func decodeRecord(line []byte) (CellRecord, bool) {
	var rl recordLine
	if json.Unmarshal(line, &rl) != nil || rl.Record == nil {
		return CellRecord{}, false
	}
	if fmt.Sprintf("%08x", crc32.ChecksumIEEE(rl.Record)) != rl.CRC {
		return CellRecord{}, false
	}
	var rec CellRecord
	if json.Unmarshal(rl.Record, &rec) != nil || rec.Stage == "" || rec.Key == "" {
		return CellRecord{}, false
	}
	return rec, true
}

// Append journals one completed unit and rewrites the file atomically.
// Appending a (stage, key) that is already journaled replaces nothing —
// the first record wins, matching Lookup.
func (c *Checkpoint) Append(rec CellRecord) error {
	if c == nil {
		return nil
	}
	if rec.Stage == "" || rec.Key == "" {
		return fmt.Errorf("persist: checkpoint record needs a stage and a key")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.index[rec.Stage+"|"+rec.Key]; !dup {
		line, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		c.index[rec.Stage+"|"+rec.Key] = len(c.records)
		c.records = append(c.records, rec)
		c.data = append(append(c.data, line...), '\n')
	}
	if err := writeAtomic(c.path, c.data); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// encodeRecord serializes one record as a checksummed journal line.
func encodeRecord(rec CellRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("persist: encoding checkpoint record: %w", err)
	}
	line, err := json.Marshal(recordLine{Record: payload, CRC: fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload))})
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return line, nil
}

// Lookup returns the journaled record for one (stage, key), if any.
func (c *Checkpoint) Lookup(stage, key string) (CellRecord, bool) {
	if c == nil {
		return CellRecord{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[stage+"|"+key]
	if !ok {
		return CellRecord{}, false
	}
	return c.records[i], true
}

// Len reports how many units are journaled.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.records)
}

// Dropped reports whether OpenCheckpoint truncated a torn or corrupt
// journal back to its good prefix: 1 if it did, 0 if the journal was
// clean. It counts truncations, not lines — a truncation discards the
// first bad line and every line after it.
func (c *Checkpoint) Dropped() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Path returns the journal's file path, or "" for a nil checkpoint.
func (c *Checkpoint) Path() string {
	if c == nil {
		return ""
	}
	return c.path
}

// JournalStatus classifies a journal's integrity for triage.
type JournalStatus string

const (
	// JournalClean means every record line decoded and checksummed.
	JournalClean JournalStatus = "clean"
	// JournalTornTail means the journal ends in an undecodable line with
	// nothing decodable after it — the signature of a crash mid-append.
	// OpenCheckpoint truncates this back to the good prefix on resume.
	JournalTornTail JournalStatus = "torn-tail"
	// JournalCorrupt means a bad record line is followed by records that
	// still decode — flipped bits in the middle of the file, not a torn
	// tail. OpenCheckpoint truncates this back to the good prefix too:
	// the stranded records may be fine, but the break means the file can
	// no longer be trusted as an append-only history, so a resume
	// recomputes their units.
	JournalCorrupt JournalStatus = "corrupt"
)

// JournalInfo is a checkpoint journal's inspection report: everything an
// operator needs to triage a dead run without reading bytes.
type JournalInfo struct {
	Path    string        `json:"path"`
	Format  string        `json:"format"`
	Version int           `json:"version"`
	Tag     string        `json:"tag"`
	Records int           `json:"records"`
	Probes  int           `json:"probes"`
	Cells   int           `json:"cells"`
	LastKey string        `json:"last_key,omitempty"` // "stage key" of the last trusted record
	Status  JournalStatus `json:"status"`
	// BadLine is the 1-based line number of the first undecodable record
	// line (0 when clean); Stranded counts records that still decode
	// after it.
	BadLine  int `json:"bad_line,omitempty"`
	Stranded int `json:"stranded,omitempty"`
}

// Inspect reads a checkpoint journal without modifying it and reports
// its header, trusted record counts, and integrity status. It errors
// only when the file is unreadable or its header is not a checkpoint
// header at all; wrong versions and foreign tags are reported in the
// info, not rejected — inspection is for triage, policy belongs to
// OpenCheckpoint.
func Inspect(path string) (*JournalInfo, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	scan, err := scanJournal(raw)
	if err != nil {
		return nil, fmt.Errorf("persist: %s is not a checkpoint file", path)
	}
	info := &JournalInfo{
		Path:    path,
		Format:  scan.hdr.Format,
		Version: scan.hdr.Version,
		Tag:     scan.hdr.Tag,
		Records: len(scan.records),
		Status:  JournalClean,
	}
	for _, rec := range scan.records {
		switch rec.Stage {
		case StageProbe:
			info.Probes++
		case StageCell:
			info.Cells++
		}
		info.LastKey = rec.Stage + " " + rec.Key
	}
	if scan.badLine > 0 {
		info.BadLine = scan.badLine
		info.Stranded = scan.stranded
		if scan.stranded > 0 {
			info.Status = JournalCorrupt
		} else {
			info.Status = JournalTornTail
		}
	}
	return info, nil
}
