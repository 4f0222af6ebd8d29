// Command tracecheck validates trace-smoke artifacts: it parses a span
// log (JSONL) and a run manifest, and fails unless the span log is
// well-formed, covers the study's phases, and the manifest is complete.
// With an optional third argument — the Prometheus metrics dump — it
// also checks the retry/fault counter algebra: retries, timeouts, and
// give-ups can never exceed attempts, and the per-kind fault counters
// must sum to the total. CI runs it after the traced -short study and
// the chaos run to catch export regressions.
//
// With -serve it instead validates the predictd serving pair — a span
// log plus an access log: every access record joins a root span by trace
// ID (with matching endpoint and status), parentage is acyclic, and
// every coalesced wait span references its leader's trace.
// -require-outcomes additionally demands the run demonstrated specific
// cache outcomes, which is how CI proves a smoke run exercised the
// cold/cached/coalesced triple.
//
// Usage:
//
//	tracecheck spans.jsonl manifest.json [metrics.prom]
//	tracecheck -serve [-require-outcomes cold,cached,coalesced] spans.jsonl access.jsonl
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hpcmetrics/internal/obs"
)

func main() {
	serveMode := flag.Bool("serve", false, "validate a predictd span log + access log pair instead of study artifacts")
	requireOutcomes := flag.String("require-outcomes", "", "comma-separated cache outcomes the serve logs must demonstrate (with -serve)")
	flag.Parse()
	var err error
	switch {
	case *serveMode:
		err = runServe(flag.Args(), *requireOutcomes)
	default:
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

// runServe cross-validates a predictd span log against its access log.
func runServe(args []string, requireOutcomes string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: tracecheck -serve [-require-outcomes a,b] spans.jsonl access.jsonl")
	}
	spansPath, accessPath := args[0], args[1]

	sf, err := os.Open(spansPath)
	if err != nil {
		return err
	}
	defer sf.Close()
	spans, err := obs.ReadJSONL[obs.SpanRecord](sf)
	if err != nil {
		return err
	}
	af, err := os.Open(accessPath)
	if err != nil {
		return err
	}
	defer af.Close()
	accs, err := obs.ReadJSONL[obs.AccessRecord](af)
	if err != nil {
		return err
	}
	if len(accs) == 0 {
		return fmt.Errorf("%s: no access records", accessPath)
	}

	stats, err := obs.CheckServeLogs(spans, accs)
	if err != nil {
		return err
	}
	if requireOutcomes != "" {
		for _, outcome := range strings.Split(requireOutcomes, ",") {
			outcome = strings.TrimSpace(outcome)
			if outcome == "" {
				continue
			}
			if stats.Outcomes[outcome] < 1 {
				return fmt.Errorf("serve logs demonstrate no %q outcome (saw %v)", outcome, stats.OutcomeNames())
			}
		}
	}
	fmt.Printf("tracecheck: %d access records joined to %d root spans (%d spans total), %d coalesced waits verified, outcomes %v\n",
		stats.AccessRecords, stats.RootSpans, len(spans), stats.CoalescedSpans, stats.OutcomeNames())
	return nil
}

// requiredPhases are the span names every traced study run must emit.
var requiredPhases = []string{"study", "probe", "observe", "trace", "predict", "convolve", "balanced"}

func run() error {
	if len(os.Args) != 3 && len(os.Args) != 4 {
		return fmt.Errorf("usage: tracecheck spans.jsonl manifest.json [metrics.prom]")
	}
	spansPath, manifestPath := os.Args[1], os.Args[2]

	f, err := os.Open(spansPath)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := obs.ReadJSONL[obs.SpanRecord](f)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s: no spans", spansPath)
	}
	byID := make(map[uint64]bool, len(recs))
	names := make(map[string]int)
	for _, rec := range recs {
		if rec.ID == 0 {
			return fmt.Errorf("%s: span with zero id", spansPath)
		}
		if byID[rec.ID] {
			return fmt.Errorf("%s: duplicate span id %d", spansPath, rec.ID)
		}
		byID[rec.ID] = true
		if rec.Name == "" || rec.Path == "" {
			return fmt.Errorf("%s: span %d missing name/path", spansPath, rec.ID)
		}
		if rec.DurNs < 0 {
			return fmt.Errorf("%s: span %d has negative duration", spansPath, rec.ID)
		}
		names[rec.Name]++
	}
	for _, rec := range recs {
		if rec.Parent != 0 && !byID[rec.Parent] {
			return fmt.Errorf("%s: span %d references unknown parent %d", spansPath, rec.ID, rec.Parent)
		}
	}
	for _, want := range requiredPhases {
		if names[want] == 0 {
			return fmt.Errorf("%s: no %q span", spansPath, want)
		}
	}

	m, err := obs.ReadManifest(manifestPath)
	if err != nil {
		return err
	}
	if err := m.Complete(); err != nil {
		return fmt.Errorf("%s: %w", manifestPath, err)
	}

	if len(os.Args) == 4 {
		if err := checkCounters(os.Args[3]); err != nil {
			return err
		}
	}

	fmt.Printf("tracecheck: %d spans across %d phase names, manifest complete (%s, GOMAXPROCS=%d)\n",
		len(recs), len(names), m.GoVersion, m.GOMAXPROCS)
	return nil
}

// checkCounters reads a Prometheus text dump and validates the retry and
// fault-injection counter algebra.
func checkCounters(path string) error {
	counters, err := readProm(path)
	if err != nil {
		return err
	}
	attempts := counters["retry_attempts_total"]
	for _, name := range []string{"retry_retries_total", "retry_timeouts_total", "retry_giveups_total"} {
		if counters[name] > attempts {
			return fmt.Errorf("%s: %s=%d exceeds retry_attempts_total=%d", path, name, counters[name], attempts)
		}
	}
	var perKind int64
	for _, kind := range []string{"transient", "stall", "permanent"} {
		perKind += counters["faults_injected_"+kind+"_total"]
	}
	if total := counters["faults_injected_total"]; total != perKind {
		return fmt.Errorf("%s: faults_injected_total=%d but per-kind counters sum to %d", path, total, perKind)
	}
	fmt.Printf("tracecheck: counters consistent (%d retry attempts, %d faults injected)\n",
		attempts, counters["faults_injected_total"])
	return nil
}

// readProm collects the plain name/value samples of a Prometheus text
// dump (labeled and histogram series are skipped — the counter algebra
// above only needs the scalars).
func readProm(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(f)
	// Three-clause form: the scan advances in the loop header, so the
	// loop's termination (end of file) is structural.
	for ok := sc.Scan(); ok; ok = sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(strings.TrimSpace(value), 10, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
