package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// WriteJSONL writes one JSON object per finished span, in Records()
// order.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range t.Records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a log of T records, one JSON object per line: a span
// log (from WriteJSONL or a JSONLFile span sink) or an access log. Blank
// lines are skipped; any other malformed line is an error naming the log
// and the line, so a torn tail is detected rather than silently dropped.
func ReadJSONL[T SpanRecord | AccessRecord](r io.Reader) ([]T, error) {
	kind := "span log"
	if _, ok := any(*new(T)).(AccessRecord); ok {
		kind = "access log"
	}
	var out []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec T
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", kind, line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// CounterSnap is one counter's point-in-time value.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge's point-in-time value and observed peak.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Peak  int64  `json:"peak"`
}

// HistogramSnap is one histogram's point-in-time totals and buckets.
type HistogramSnap struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	SumNs   int64   `json:"sum_ns"`
	Buckets []int64 `json:"buckets"`
}

// Snapshot is a consistent-enough copy of a registry for rendering:
// instruments are listed sorted by name; each instrument's fields are
// read atomically but the set is not a global atomic cut.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

// Snapshot captures the registry's instruments, sorted by name. Nil
// reads an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.Unlock()

	for name, c := range counters {
		snap.Counters = append(snap.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: name, Value: g.Value(), Peak: g.Peak()})
	}
	for name, h := range hists {
		b := h.Buckets()
		snap.Histograms = append(snap.Histograms, HistogramSnap{
			Name:    name,
			Count:   h.Count(),
			SumNs:   h.SumNs(),
			Buckets: b[:],
		})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// PromName sanitizes an instrument name into the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*: every invalid byte becomes '_' and
// a leading digit is prefixed with '_'. The registry accepts any string
// as a name (hot paths build names by concatenation), so the exposition
// boundary is where the grammar gets enforced — a scrape must never see
// an invalid series name.
func PromName(name string) string {
	if name == "" {
		return "_"
	}
	valid := func(c byte, first bool) bool {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			return true
		case c >= '0' && c <= '9':
			return !first
		}
		return false
	}
	clean := true
	for i := 0; i < len(name); i++ {
		if !valid(name[i], i == 0) {
			clean = false
			break
		}
	}
	if clean {
		return name
	}
	b := []byte(name)
	for i := range b {
		if !valid(b[i], false) {
			b[i] = '_'
		}
	}
	if !valid(b[0], true) {
		return "_" + string(b)
	}
	return string(b)
}

// PromFloat formats a float sample value for the text exposition
// format, which spells special values "NaN", "+Inf", and "-Inf" (%g
// would emit "NaN"/"+Inf" too, but Go's spelling of negative infinity
// and the format's are only accidentally aligned — make it explicit so
// a conformance test can pin it).
func PromFloat(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// WriteProm dumps the registry in Prometheus text exposition format.
// Histograms use cumulative le buckets with bounds in seconds; gauges
// additionally export a <name>_peak series. Instrument names are passed
// through PromName, so the output conforms even when a registry name
// does not.
func (r *Registry) WriteProm(w io.Writer) error {
	snap := r.Snapshot()
	bw := bufio.NewWriter(w)
	for _, c := range snap.Counters {
		name := PromName(c.Name)
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", name, name, c.Value)
	}
	for _, g := range snap.Gauges {
		name := PromName(g.Name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", name, name, g.Value)
		fmt.Fprintf(bw, "# TYPE %s_peak gauge\n%s_peak %d\n", name, name, g.Peak)
	}
	for _, h := range snap.Histograms {
		name := PromName(h.Name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		cum := int64(0)
		for i, n := range h.Buckets {
			cum += n
			if i == len(h.Buckets)-1 {
				fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
				continue
			}
			boundSeconds := float64(BucketBound(i)) / float64(time.Second.Nanoseconds())
			fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n", name, PromFloat(boundSeconds), cum)
		}
		sumSeconds := float64(h.SumNs) / float64(time.Second.Nanoseconds())
		fmt.Fprintf(bw, "%s_sum %s\n%s_count %d\n", name, PromFloat(sumSeconds), name, h.Count)
	}
	return bw.Flush()
}

// PromHandler returns an http.Handler serving the registry in the same
// Prometheus text exposition format as WriteProm — the scrape endpoint a
// server mounts at /metrics. Nil-safe: a nil registry serves an empty
// exposition. Each scrape takes a fresh Snapshot, so the handler is safe
// under concurrent instrument updates.
func (r *Registry) PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WriteProm(w); err != nil {
			// The exposition was already streaming when the write broke;
			// the client connection is gone and there is no one left to
			// tell. The next scrape starts clean.
			return
		}
	})
}

// ManifestSchema identifies the manifest layout; bump on breaking field
// changes so tooling can reject manifests it does not understand.
const ManifestSchema = 1

// Manifest records everything needed to attribute a run's numbers: the
// toolchain, the host's parallelism, the options that shaped the study,
// and where the span log went.
type Manifest struct {
	Schema      int            `json:"schema"`
	CreatedAt   string         `json:"created_at"`
	GoVersion   string         `json:"go_version"`
	GOOS        string         `json:"goos"`
	GOARCH      string         `json:"goarch"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"num_cpu"`
	GitDescribe string         `json:"git_describe,omitempty"`
	Seed        string         `json:"seed"`
	Options     map[string]any `json:"options,omitempty"`
	SpanFile    string         `json:"span_file,omitempty"`
	// FaultPlan is the run's fault-injection fingerprint
	// (faults.Fingerprint()), so a chaos run is identifiable from its
	// manifest alone. Fault-free runs omit it.
	FaultPlan string `json:"fault_plan,omitempty"`
}

// NewManifest captures the current environment. GitDescribe is filled
// best-effort (empty when git or the repo is unavailable); Seed,
// Options, and SpanFile are the caller's to set.
func NewManifest() Manifest {
	return Manifest{
		Schema:      ManifestSchema,
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GitDescribe: gitDescribe(),
	}
}

// gitDescribe returns `git describe --always --dirty`, or "" when git is
// missing, slow, or not in a repository.
func gitDescribe() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Complete reports whether the manifest carries every field tooling
// relies on; trace-smoke gates on it.
func (m Manifest) Complete() error {
	switch {
	case m.Schema != ManifestSchema:
		return fmt.Errorf("manifest schema %d, want %d", m.Schema, ManifestSchema)
	case m.CreatedAt == "":
		return fmt.Errorf("manifest missing created_at")
	case m.GoVersion == "":
		return fmt.Errorf("manifest missing go_version")
	case m.GOOS == "" || m.GOARCH == "":
		return fmt.Errorf("manifest missing goos/goarch")
	case m.GOMAXPROCS <= 0:
		return fmt.Errorf("manifest gomaxprocs %d, want > 0", m.GOMAXPROCS)
	case m.NumCPU <= 0:
		return fmt.Errorf("manifest num_cpu %d, want > 0", m.NumCPU)
	case m.Seed == "":
		return fmt.Errorf("manifest missing seed")
	}
	return nil
}

// WriteFile writes the manifest as indented JSON.
func (m Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadManifest parses a manifest written by WriteFile.
func ReadManifest(path string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, err
	}
	return m, nil
}
