// Command tracer traces one application test case on the base system and
// dumps its signature: per-block operation counts, stride classification,
// working-set estimates, ILP flags, and the MPI event profile — what
// MetaSim Tracer, the stride detector, MPIDTRACE, and the static analyzer
// deliver in the paper's tool chain. The dump is for reading; predict
// and predictd trace the cell themselves and memoize the signature.
//
// Usage:
//
//	tracer -app avus [-case standard] [-procs 64] [-base NAVO_690]
package main

import (
	"flag"
	"fmt"
	"os"

	"hpcmetrics"
)

func main() {
	appName := flag.String("app", "", "application name (avus, hycom, overflow2, rfcth)")
	caseName := flag.String("case", "", "test case (standard, large; default: first registered)")
	procs := flag.Int("procs", 0, "processor count (default: the test case's middle count)")
	baseName := flag.String("base", hpcmetrics.BaseSystem, "base system to trace on")
	flag.Parse()

	if *appName == "" {
		fmt.Fprintln(os.Stderr, "tracer: -app is required; known test cases:")
		for _, tc := range hpcmetrics.TestCases() {
			fmt.Fprintf(os.Stderr, "  %s (CPUs %v)\n", tc.ID(), tc.CPUCounts)
		}
		os.Exit(2)
	}

	tc, err := hpcmetrics.LookupTestCase(*appName, *caseName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
	if *procs == 0 {
		*procs, err = tc.DefaultProcs()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracer:", err)
			os.Exit(1)
		}
	}
	app, err := tc.Instance(*procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
	base, err := hpcmetrics.LookupMachine(*baseName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}

	tr, err := hpcmetrics.CollectTrace(base, app)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}

	fmt.Printf("trace of %s at %d CPUs on %s\n", tr.ID(), tr.Procs, tr.BaseSystem)
	fmt.Printf("totals: %.3g flops, %.3g memory references per rank\n\n",
		tr.TotalFlops(), tr.TotalMemOps())
	fmt.Printf("%-12s %12s %10s %8s %8s %8s %10s %6s\n",
		"block", "iters", "flops/it", "unit", "short", "random", "workset", "ILP")
	for _, bt := range tr.Blocks {
		fmt.Printf("%-12s %12.3g %10.0f %7.1f%% %7.1f%% %7.1f%% %10s %6v\n",
			bt.Name, bt.Iters, bt.FlopsPerIter,
			bt.Mix.Unit*100, bt.Mix.Short*100, bt.Mix.Random*100,
			sizeLabel(bt.WorkingSetBytes), bt.ILPLimited)
	}

	fmt.Println("\nMPI event profile (per rank, whole run):")
	for _, ev := range tr.Comm {
		fmt.Printf("  %-10s %10.0f events x %8d bytes\n", ev.Op, ev.Count, ev.Bytes)
	}
}

func sizeLabel(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.0fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
