// Shard journals: the distributed study's persistence layer.
//
// A distributed campaign runs one shard worker per slice of the
// machine×app grid, each journaling into its own checkpoint file whose
// header tag carries a shard suffix (";shard=index/count/name") on top
// of the study's options tag. The suffix makes a shard journal
// unresumable into the wrong slice, while the shared base tag lets
// MergeCheckpoints fold a directory of shard journals back into one
// campaign: records are deduplicated first-record-wins (every record is
// a pure function of the options tag, so duplicates from a shard re-run
// into a second journal are byte-identical), journals from a different
// campaign are rejected outright, and journals corrupted beyond a torn
// tail are quarantined with a per-file reason instead of failing the
// merge. Inspect is the
// triage tool under both: it classifies a journal as clean, torn-tail,
// or corrupt without rewriting a byte.

package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ShardSpec identifies one shard's slice of a distributed study grid:
// the worker owning slice Index of Count processes every grid unit u
// with u % Count == Index. Name is the operator-facing label stamped on
// journals, span logs, and manifests.
type ShardSpec struct {
	Index int    `json:"index"`
	Count int    `json:"count"`
	Name  string `json:"name"`
}

// Sharded reports whether the spec names a real slice (Count > 1).
func (s ShardSpec) Sharded() bool { return s.Count > 1 }

// String formats the spec as "index/count (name)".
func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d (%s)", s.Index, s.Count, s.Name) }

// shardTagSep separates the base options tag from the shard component.
const shardTagSep = ";shard="

// ShardTag appends the shard component to a base options tag. An
// unsharded spec returns the base unchanged, so single-process journals
// keep their PR-5 tags byte-identical.
func ShardTag(base string, s ShardSpec) string {
	if !s.Sharded() {
		return base
	}
	return fmt.Sprintf("%s%s%d/%d/%s", base, shardTagSep, s.Index, s.Count, s.Name)
}

// SplitShardTag splits a journal tag into its base options tag and
// shard component. Tags without a well-formed shard suffix come back
// whole with sharded == false.
func SplitShardTag(tag string) (base string, spec ShardSpec, sharded bool) {
	i := strings.LastIndex(tag, shardTagSep)
	if i < 0 {
		return tag, ShardSpec{}, false
	}
	parts := strings.SplitN(tag[i+len(shardTagSep):], "/", 3)
	if len(parts) != 3 {
		return tag, ShardSpec{}, false
	}
	idx, err1 := strconv.Atoi(parts[0])
	cnt, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || cnt < 2 || idx < 0 || idx >= cnt {
		return tag, ShardSpec{}, false
	}
	return tag[:i], ShardSpec{Index: idx, Count: cnt, Name: parts[2]}, true
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
	// tail. MergeCheckpoints quarantines such a journal: the stranded
	// records may be fine, but the break means the file can no longer be
	// trusted as an append-only history.
	JournalCorrupt JournalStatus = "corrupt"
)

// JournalInfo is a checkpoint journal's inspection report: everything an
// operator needs to triage a dead shard without reading bytes.
type JournalInfo struct {
	Path    string        `json:"path"`
	Format  string        `json:"format"`
	Version int           `json:"version"`
	Tag     string        `json:"tag"`
	BaseTag string        `json:"base_tag"`
	Shard   ShardSpec     `json:"shard,omitempty"`
	Sharded bool          `json:"sharded"`
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
// OpenCheckpoint and MergeCheckpoints.
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
	info.BaseTag, info.Shard, info.Sharded = SplitShardTag(scan.hdr.Tag)
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

// Quarantined names one shard journal a merge excluded, and why.
type Quarantined struct {
	Path   string `json:"path"`
	Reason string `json:"reason"`
}

// ShardJournal summarizes one journal a merge accepted.
type ShardJournal struct {
	Path    string    `json:"path"`
	Shard   ShardSpec `json:"shard,omitempty"`
	Sharded bool      `json:"sharded"`
	Records int       `json:"records"`
}

// MergeResult is the folded view of a directory of shard journals.
type MergeResult struct {
	// Records is the deduplicated union, first-record-wins in sorted
	// journal-path order (in-file order preserved within a journal).
	Records []CellRecord
	// Journals lists the accepted journals in merge order.
	Journals []ShardJournal
	// Quarantined lists the journals the merge excluded: corrupt beyond
	// a torn tail, unreadable, or schema-incompatible. Their units are
	// simply absent from Records — a merge-resume recomputes them.
	Quarantined []Quarantined
	// ShardCount is the campaign's shard count (0 when only unsharded
	// journals were found); MissingShards lists slice indexes no
	// accepted journal covers.
	ShardCount    int
	MissingShards []int
}

// MergeCheckpoints folds every "*.ckpt" journal under dir into one
// campaign view. Policy:
//
//   - A journal whose base tag differs from baseTag is a hard error:
//     its records were produced under different options — a different
//     grid, ablation, fault plan, or retry/timeout budget — and merging
//     them would splice incompatible experiments into one table.
//   - Sharded journals must agree on the shard count, and indexes must
//     be in range; disagreement is a hard error for the same reason.
//     Duplicate indexes are fine — a shard re-run into a second journal
//     covers the same slice as the first, and dedup makes the overlap
//     harmless.
//   - A journal that is unreadable, not a checkpoint, from another
//     format version, or corrupt beyond a torn tail is quarantined with
//     a per-file reason rather than failing the merge; a torn tail
//     costs only the torn line (the good prefix merges normally).
//   - Records are deduplicated first-record-wins. Every record is a
//     pure function of the base tag, so whichever copy wins, the bytes
//     are the same.
func MergeCheckpoints(dir, baseTag string) (*MergeResult, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("persist: no shard journals (*.ckpt) under %s", dir)
	}
	sort.Strings(paths)

	out := &MergeResult{}
	seen := make(map[string]bool)
	covered := make(map[int]bool)
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			out.Quarantined = append(out.Quarantined, Quarantined{Path: path, Reason: err.Error()})
			continue
		}
		scan, err := scanJournal(raw)
		if err != nil {
			out.Quarantined = append(out.Quarantined, Quarantined{Path: path, Reason: "not a checkpoint journal"})
			continue
		}
		if scan.hdr.Format != formatCheckpoint {
			out.Quarantined = append(out.Quarantined, Quarantined{
				Path: path, Reason: fmt.Sprintf("holds %q, want %q", scan.hdr.Format, formatCheckpoint)})
			continue
		}
		if scan.hdr.Version != FormatVersion {
			out.Quarantined = append(out.Quarantined, Quarantined{
				Path: path, Reason: fmt.Sprintf("checkpoint version %d, this build reads %d", scan.hdr.Version, FormatVersion)})
			continue
		}
		if scan.badLine > 0 && scan.stranded > 0 {
			out.Quarantined = append(out.Quarantined, Quarantined{
				Path: path, Reason: fmt.Sprintf("corrupt record at line %d with %d intact records stranded after it", scan.badLine, scan.stranded)})
			continue
		}
		base, spec, sharded := SplitShardTag(scan.hdr.Tag)
		if base != baseTag {
			return nil, fmt.Errorf("persist: shard journal %s was written by a study with different options (tag %q, want %q) — refusing to merge mixed campaigns", path, base, baseTag)
		}
		if sharded {
			if out.ShardCount == 0 {
				out.ShardCount = spec.Count
			}
			if spec.Count != out.ShardCount {
				return nil, fmt.Errorf("persist: shard journal %s slices the grid %d ways but %s slices it %d ways — refusing to merge mixed campaigns",
					path, spec.Count, out.Journals[0].Path, out.ShardCount)
			}
			covered[spec.Index] = true
		}
		out.Journals = append(out.Journals, ShardJournal{Path: path, Shard: spec, Sharded: sharded, Records: len(scan.records)})
		for _, rec := range scan.records {
			id := rec.Stage + "|" + rec.Key
			if seen[id] {
				continue
			}
			seen[id] = true
			out.Records = append(out.Records, rec)
		}
	}
	if len(out.Journals) == 0 {
		return nil, fmt.Errorf("persist: every journal under %s was quarantined (%d files)", dir, len(out.Quarantined))
	}
	for i := 0; i < out.ShardCount; i++ {
		if !covered[i] {
			out.MissingShards = append(out.MissingShards, i)
		}
	}
	return out, nil
}

// SeedCheckpoint builds a checkpoint preloaded with records — the merged
// view of a directory of shard journals. With an empty path the journal
// is memory-only: Lookup serves the seeds and Append records new units
// without touching disk, which is what a merge-resume wants (the shard
// journals stay the durable artifact). With a path, the seeded journal
// is written out atomically and later appends persist as usual.
func SeedCheckpoint(path, tag string, records []CellRecord) (*Checkpoint, error) {
	index := make(map[string]int, len(records))
	var kept []CellRecord
	for _, rec := range records {
		if rec.Stage == "" || rec.Key == "" {
			return nil, fmt.Errorf("persist: seed record needs a stage and a key")
		}
		if _, dup := index[rec.Stage+"|"+rec.Key]; dup {
			continue
		}
		index[rec.Stage+"|"+rec.Key] = len(kept)
		kept = append(kept, rec)
	}
	var data []byte
	if path != "" {
		hdr, err := encodeHeader(tag)
		if err != nil {
			return nil, err
		}
		data = hdr
		for _, rec := range kept {
			line, err := encodeRecord(rec)
			if err != nil {
				return nil, err
			}
			data = append(append(data, line...), '\n')
		}
		if err := writeAtomic(path, data); err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
	}
	return &Checkpoint{path: path, tag: tag, index: index, records: kept, data: data}, nil
}
