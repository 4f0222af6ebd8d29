package obs

import (
	"fmt"
	"sort"
)

// ShardStats summarizes a validated multi-shard span log.
type ShardStats struct {
	// Spans is the number of span records checked.
	Spans int
	// Shards counts spans per shard name.
	Shards map[string]int
	// Slots is the number of distinct span-ID slots (producing
	// processes) seen across the log — one per shard name when each
	// shard's log came from one run.
	Slots int
}

// shardSlot extracts a span ID's process slot: SetShard offsets every ID
// by (slot+1) << 48, so the high 16 bits identify the producing process.
func shardSlot(id uint64) uint64 { return id >> 48 }

// CheckShardedSpans validates a concatenated multi-shard span log
// against the manifests of the workers that produced it:
//
//   - every span carries a non-empty shard name that matches some
//     manifest's shard field, and every manifest's shard produced at
//     least one span;
//   - span IDs are globally unique and slot-prefixed (SetShard), and a
//     slot is never shared by two shard names — concatenating any set of
//     worker logs cannot collide;
//   - parentage never crosses processes: a span's parent exists in the
//     log, lives in the same slot, and carries the same shard name.
func CheckShardedSpans(spans []SpanRecord, manifests []Manifest) (ShardStats, error) {
	stats := ShardStats{Shards: make(map[string]int)}
	if len(spans) == 0 {
		return stats, fmt.Errorf("span log is empty")
	}

	declared := make(map[string]bool, len(manifests))
	for _, m := range manifests {
		if m.Shard == "" {
			return stats, fmt.Errorf("manifest carries no shard name")
		}
		declared[m.Shard] = true
	}

	byID := make(map[uint64]SpanRecord, len(spans))
	slotShard := make(map[uint64]string)
	for _, s := range spans {
		stats.Spans++
		if s.ID == 0 {
			return stats, fmt.Errorf("span %q with zero id", s.Path)
		}
		if _, dup := byID[s.ID]; dup {
			return stats, fmt.Errorf("duplicate span id %d across shard logs (%q)", s.ID, s.Path)
		}
		byID[s.ID] = s
		if s.Shard == "" {
			return stats, fmt.Errorf("span %d (%q) carries no shard name", s.ID, s.Path)
		}
		if len(declared) > 0 && !declared[s.Shard] {
			return stats, fmt.Errorf("span %d names shard %q, which no manifest declares", s.ID, s.Shard)
		}
		slot := shardSlot(s.ID)
		if slot == 0 {
			return stats, fmt.Errorf("span %d (shard %q) has no slot prefix — its worker never called SetShard", s.ID, s.Shard)
		}
		if prev, ok := slotShard[slot]; ok && prev != s.Shard {
			return stats, fmt.Errorf("span-id slot %d is shared by shards %q and %q", slot, prev, s.Shard)
		}
		slotShard[slot] = s.Shard
		stats.Shards[s.Shard]++
	}
	stats.Slots = len(slotShard)

	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok {
			return stats, fmt.Errorf("span %d (shard %q) has missing parent %d", s.ID, s.Shard, s.Parent)
		}
		if shardSlot(s.Parent) != shardSlot(s.ID) || parent.Shard != s.Shard {
			return stats, fmt.Errorf("span %d (shard %q) parents into span %d (shard %q): parentage crosses worker processes",
				s.ID, s.Shard, parent.ID, parent.Shard)
		}
	}

	var unseen []string
	for name := range declared {
		if stats.Shards[name] == 0 {
			unseen = append(unseen, name)
		}
	}
	if len(unseen) > 0 {
		sort.Strings(unseen)
		return stats, fmt.Errorf("manifests declare shards with no spans in the log: %v", unseen)
	}
	return stats, nil
}
