package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one call from the benchmark into a layer. Spans of one request
// share Trace, the ID of their root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	Attr    string `json:"attr,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is the
// benchmark's own, not the program's internal/obs, so a change to the
// program's tracing cannot change what the benchmark measures.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (r *recorder) begin(parent int, name, attr string) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	trace := id
	if parent != 0 {
		trace = r.spans[parent-1].Trace
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Attr: attr, StartNs: now})
	return id
}

// end closes a span.
func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNs = now
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int
	total time.Duration // summed span durations
	self  time.Duration // summed durations less the time their children cover
}

// stats aggregates closed spans by name. Children of one span never
// overlap (each replay calls one layer at a time), so a span's self time
// is its duration less its children's.
func (r *recorder) stats() map[string]*layerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[string]*layerStat{}
	for _, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := s.EndNs - s.StartNs
		st.count++
		st.total += time.Duration(d)
		st.self += time.Duration(d - child[s.ID])
	}
	return out
}

// covered sums the durations of root's children: each is one call into
// a layer, so this is the replay's layer time without its own glue.
func (r *recorder) covered(root int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var covered int64
	for _, s := range r.spans {
		if s.Parent == root {
			covered += s.EndNs - s.StartNs
		}
	}
	return time.Duration(covered)
}

// count returns how many spans were recorded.
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// spanCost measures what recording one span costs, on a scratch
// recorder, so a traced run can report its own overhead.
func spanCost() time.Duration {
	const n = 20000
	r := newRecorder()
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin(0, "calibrate", ""))
	}
	return time.Since(start) / n
}
