// Command predict makes one prediction: the runtime of an application
// test case on a target machine, using a chosen metric (1-9), and — when
// the job fits on the simulated target — compares it against the
// ground-truth observed time, reporting the paper's Equation 2 error.
//
// Each metric is one request to a zero-World Predictor with ground truth
// on, so the numbers printed here are what predictd serves for
// /v1/predict?observed=1. With -all the nine requests share one probe
// suite per machine, one base run and trace, and one target run.
//
// Usage:
//
//	predict -app hycom -target ARL_Opteron [-case standard] [-procs 96] [-metric 9 | -all]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"hpcmetrics"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the whole CLI, factored from main so tests can drive it with
// arbitrary flags and capture both streams. Returns the process exit
// code: 0 on success, 1 on runtime errors, 2 on usage errors.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	appName := fs.String("app", "", "application name (avus, hycom, overflow2, rfcth)")
	caseName := fs.String("case", "", "test case (standard, large)")
	procs := fs.Int("procs", 0, "processor count (default: the test case's middle count)")
	target := fs.String("target", "", "target machine preset")
	metricID := fs.Int("metric", 9, "metric number 1-9 (paper Table 3)")
	all := fs.Bool("all", false, "apply all nine metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *appName == "" || *target == "" {
		fmt.Fprintln(stderr, "predict: -app and -target are required")
		fs.Usage()
		return 2
	}
	// -all applies every metric; a -metric given alongside it would be
	// silently ignored, so the combination is rejected rather than
	// guessed at.
	metricSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "metric" {
			metricSet = true
		}
	})
	if metricSet && *all {
		fmt.Fprintln(stderr, "predict: -metric and -all are mutually exclusive (drop one)")
		return 2
	}

	ids := []int{*metricID}
	if *all {
		ids = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	}
	req := hpcmetrics.PredictRequest{App: *appName, Case: *caseName, Procs: *procs, Machine: *target, Observed: true}
	if err := predict(ctx, req, ids, stdout); err != nil {
		fmt.Fprintln(stderr, "predict:", err)
		return 1
	}
	return 0
}

// predict asks one Predictor for req under each metric in ids and prints
// the answers. The Predictor validates each request before computing.
func predict(ctx context.Context, req hpcmetrics.PredictRequest, ids []int, stdout io.Writer) error {
	p := hpcmetrics.NewPredictor(hpcmetrics.PredictorConfig{})
	var res *hpcmetrics.PredictResult
	for i, id := range ids {
		req.MetricID = id
		var err error
		if res, err = p.Predict(ctx, req); err != nil {
			return err
		}
		if i == 0 {
			fmt.Fprintf(stdout, "%s-%s at %d CPUs: base (%s) observed %.0f s\n",
				res.App, res.Case, res.Procs, res.BaseMachine, res.BaseSeconds)
		}
		fmt.Fprintf(stdout, "metric %-4s %-20s predicts %8.0f s on %s",
			res.MetricLabel, res.MetricName, res.PredictedSeconds, res.Machine)
		if res.HasObserved {
			fmt.Fprintf(stdout, "  (observed %.0f s, error %+.0f%%)", res.ObservedSeconds, res.SignedErrorPct)
		}
		fmt.Fprintln(stdout)
	}
	if !res.Fits {
		cfg, err := hpcmetrics.LookupMachine(res.Machine)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "(job does not fit on %s's %d processors; no observed time)\n",
			cfg.Name, cfg.TotalProcs)
	}
	return nil
}
