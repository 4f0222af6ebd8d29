// Command metricstudy runs the full SC'05 reproduction and prints every
// table and figure of the paper's evaluation section: Table 4 (error per
// metric), Table 5 (error per system), the balanced-rating experiment,
// Figures 1 and 3-7, and the appendix observed-time tables.
//
// With -trace it also instruments the run: every phase becomes a span,
// the worker pool reports occupancy and queue wait, and a flame-style
// per-phase time table plus the run-metrics table are printed after the
// study sections. -spans and -manifest export the span log (JSONL) and
// the run manifest; -cpuprofile, -memprofile, and -tracefile wire the
// standard Go profilers in.
//
// Robustness controls: -max-attempts and -cell-timeout give every
// probe/trace/observe unit a retry budget and a per-attempt deadline;
// -checkpoint journals completed work so a cancelled or crashed study
// can be re-run with -resume and pick up where it left off; -faults and
// -fault-seed arm the deterministic chaos injector (internal/faults).
// -checkpoint-info triages a journal without touching it.
//
// Usage:
//
//	metricstudy [-csv] [-quiet] [-only <section>] [-ablate <ingredient>]
//	            [-apps a,b] [-targets x,y] [-workers n]
//	            [-max-attempts n] [-cell-timeout d]
//	            [-checkpoint f.ckpt] [-resume]
//	            [-faults rules] [-fault-seed n]
//	            [-trace] [-spans f.jsonl] [-manifest f.json] [-prom f.txt]
//	            [-cpuprofile f] [-memprofile f] [-tracefile f]
//	metricstudy -checkpoint-info f.ckpt
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"slices"
	"strings"
	"syscall"

	"hpcmetrics"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/persist"
	"hpcmetrics/internal/predictor"
	"hpcmetrics/internal/report"
	"hpcmetrics/internal/study"
)

// sections lists the values -only accepts.
var sections = []string{"table4", "table5", "figures", "observed", "probes", "balanced", "correlation", "ranking", "skips", "phases"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "metricstudy:", err)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run() error {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	only := flag.String("only", "", "print only one section: "+strings.Join(sections, ", "))
	ablate := flag.String("ablate", "", "ablation: noise, loadedmem, or dep (runs the study with that model ingredient disabled)")
	appsFlag := flag.String("apps", "", "comma-separated test cases to study (default all, e.g. avus-standard)")
	targetsFlag := flag.String("targets", "", "comma-separated target systems to study (default all, e.g. ARL_Opteron)")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	traceOn := flag.Bool("trace", false, "instrument the run: spans, pool metrics, and a per-phase time table")
	spansPath := flag.String("spans", "", "write the span log (JSONL) to this path (implies -trace)")
	manifestPath := flag.String("manifest", "", "write the run manifest (JSON) to this path (implies -trace)")
	promPath := flag.String("prom", "", "write the metrics registry (Prometheus text format) to this path (implies -trace)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path")
	tracefile := flag.String("tracefile", "", "write a runtime/trace execution trace to this path")
	maxAttempts := flag.Int("max-attempts", 0, "per-unit retry budget (0 or 1 = single attempt)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-attempt deadline for each probe/trace/observe unit (0 = none)")
	checkpoint := flag.String("checkpoint", "", "journal completed work to this checkpoint file")
	resume := flag.Bool("resume", false, "resume from an existing -checkpoint journal instead of starting fresh")
	faultsSpec := flag.String("faults", "", "chaos fault rules, comma-separated kind:point:rate[:burst[:stall[:match]]]")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the deterministic fault injector")
	checkpointInfo := flag.String("checkpoint-info", "", "inspect a checkpoint journal (version, tag, records, last unit, integrity) and exit")
	flag.Parse()

	if *only != "" && !slices.Contains(sections, *only) {
		fmt.Fprintf(os.Stderr, "metricstudy: unknown -only section %q\n", *only)
		flag.Usage()
		os.Exit(2)
	}

	if *checkpointInfo != "" {
		return printCheckpointInfo(*checkpointInfo)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	opts := study.Options{
		Progress:       progress,
		Apps:           splitList(*appsFlag),
		Targets:        splitList(*targetsFlag),
		Workers:        *workers,
		MaxAttempts:    *maxAttempts,
		CellTimeout:    *cellTimeout,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	if *faultsSpec != "" {
		rules, err := hpcmetrics.ParseFaultRules(*faultsSpec)
		if err != nil {
			return err
		}
		opts.Faults = hpcmetrics.NewFaultInjector(*faultSeed, rules...)
		fmt.Fprintf(os.Stderr, "metricstudy: chaos active — %d fault rule(s), seed %d\n", len(rules), *faultSeed)
	}
	switch *ablate {
	case "":
	case "noise":
		opts.DisableNoise = true
	case "loadedmem":
		opts.IdleMemory = true
	case "dep":
		opts.NoDependencyFlags = true
	default:
		return fmt.Errorf("unknown ablation %q", *ablate)
	}
	if *ablate != "" {
		fmt.Fprintf(os.Stderr, "metricstudy: ablation %q active — results intentionally deviate from the reproduction\n", *ablate)
	}
	if *spansPath != "" || *manifestPath != "" || *promPath != "" {
		*traceOn = true
	}
	if *traceOn {
		opts.Obs = obs.New()
	}

	// A signal-cancelled root: ^C or SIGTERM cancels the study's worker
	// pool instead of killing workers mid-write, so checkpoints stay
	// consistent and a -resume run can pick up cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := study.RunContext(ctx, opts)
	if err != nil {
		return err
	}

	emit := func(t *hpcmetrics.ReportTable) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
	section := func(name string) bool { return *only == "" || *only == name }

	if section("probes") {
		emit(hpcmetrics.ProbeTable(res))
		var prs []*hpcmetrics.ProbeResults
		for _, name := range []string{hpcmetrics.NAVO655, hpcmetrics.ARLAltix, hpcmetrics.ARLOpteron} {
			if pr, ok := res.Probes[name]; ok {
				prs = append(prs, pr)
			}
		}
		emit(report.MAPSCurveTable(prs))
	}
	if section("table4") {
		emit(hpcmetrics.Table4(res))
	}
	if section("balanced") {
		emit(hpcmetrics.BalancedTable(res))
	}
	if section("table5") {
		emit(hpcmetrics.Table5(res))
	}
	if section("figures") {
		for _, tc := range hpcmetrics.TestCases() {
			if !opts.WantsApp(tc.ID()) {
				continue
			}
			t, err := hpcmetrics.FigureTable(res, tc.ID())
			if err != nil {
				return err
			}
			emit(t)
		}
	}
	if section("observed") {
		for _, tc := range hpcmetrics.TestCases() {
			if !opts.WantsApp(tc.ID()) {
				continue
			}
			t, err := hpcmetrics.ObservedTable(res, tc.ID())
			if err != nil {
				return err
			}
			emit(t)
		}
	}
	if section("correlation") {
		t, err := report.CorrelationTable(res)
		if err != nil {
			return err
		}
		emit(t)
	}
	if section("ranking") {
		fmt.Println("Application-performance ranking (best first, observed vs base):")
		for i, name := range hpcmetrics.Ranking(res) {
			fmt.Printf("  %2d. %s\n", i+1, name)
		}
	}
	if section("skips") && len(res.Skips) > 0 {
		emit(report.SkipTable(res))
	}
	if *traceOn && section("phases") {
		emit(report.PhaseTable(opts.Obs.Tracer.PhaseStats()))
		emit(report.RegistryTable(opts.Obs.Metrics.Snapshot()))
	}

	if err := exportObs(opts, *spansPath, *manifestPath, *promPath, *ablate); err != nil {
		return err
	}
	if *memprofile != "" {
		// Written after the study so the heap profile reflects the run's
		// live set rather than flag parsing.
		return writeTo(*memprofile, func(w io.Writer) error {
			runtime.GC()
			return pprof.WriteHeapProfile(w)
		})
	}
	return nil
}

// writeTo creates path, streams write into it, and returns the first
// error among create, write, and close.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printCheckpointInfo renders a journal inspection report — the
// -checkpoint-info triage view.
func printCheckpointInfo(path string) error {
	info, err := persist.Inspect(path)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint: %s\n", info.Path)
	fmt.Printf("format: %s, version %d\n", info.Format, info.Version)
	fmt.Printf("options tag: %s\n", info.Tag)
	fmt.Printf("records: %d (%d probes, %d cells)\n", info.Records, info.Probes, info.Cells)
	if info.LastKey != "" {
		fmt.Printf("last unit: %s\n", info.LastKey)
	}
	switch info.Status {
	case persist.JournalClean:
		fmt.Println("status: clean")
	case persist.JournalTornTail:
		fmt.Printf("status: torn tail (undecodable line %d; a resume truncates it)\n", info.BadLine)
	case persist.JournalCorrupt:
		fmt.Printf("status: corrupt (bad record at line %d, %d intact records stranded after it; a resume truncates the journal to its good prefix and recomputes them)\n",
			info.BadLine, info.Stranded)
	}
	return nil
}

// exportObs writes the span log, run manifest, and Prometheus dump for a
// traced run.
func exportObs(opts study.Options, spansPath, manifestPath, promPath, ablate string) error {
	if opts.Obs == nil {
		return nil
	}
	if spansPath != "" {
		if err := writeTo(spansPath, opts.Obs.Tracer.WriteJSONL); err != nil {
			return err
		}
	}
	if promPath != "" {
		if err := writeTo(promPath, opts.Obs.Metrics.WriteProm); err != nil {
			return err
		}
	}
	if manifestPath != "" {
		m := obs.NewManifest()
		m.Seed = fmt.Sprintf("fnv1a-noise-amp=%g", predictor.NoiseAmplitude)
		m.Options = map[string]any{
			"apps":         opts.Apps,
			"targets":      opts.Targets,
			"workers":      opts.Workers,
			"ablate":       ablate,
			"max_attempts": opts.MaxAttempts,
			"cell_timeout": opts.CellTimeout.String(),
			"checkpoint":   opts.CheckpointPath,
			"resume":       opts.Resume,
			"chaos":        opts.Faults != nil,
			"faults":       opts.Faults.Fingerprint(),
		}
		m.FaultPlan = opts.Faults.Fingerprint()
		m.SpanFile = spansPath
		if err := m.WriteFile(manifestPath); err != nil {
			return err
		}
	}
	return nil
}
