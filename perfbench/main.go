// Command perfbench is the repository's benchmark. Each of its three
// workloads puts one group of layers under load and leaves the others
// nearly idle:
//
//	study-slice  a one-worker Table 4 study slice (cmd/metricstudy):
//	             probes, memsim and target executions
//	serve-cold   never-seen /v1/predict cells against cmd/predictd on one
//	             connection: trace replay and the base-system run
//	serve-hot    cached /v1/predict and /v1/rank keys against cmd/predictd
//	             on two connections: HTTP, admission, cache reads, JSON
//
// With -trace 0 it measures the end-to-end metrics with nothing traced.
// With -trace 1 it replays the workload's work through the layers'
// public functions, records a span around every call it makes into a
// layer, and reports per-layer metrics. Every output is checked exactly
// against perfbench/testdata, recorded with -record.
//
// The last line of standard output is the result object; the line
// before it records host facts, sample counts and any check failures.
// run.sh builds the programs under test and then runs this command from
// the repository root:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --record
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow boot does not move it.
const setupRepeats = 3

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// env is what every workload needs from the command line.
type env struct {
	root     string // repository root: binaries are run from here
	bin      string // directory holding predictd, metricstudy and tracer
	work     string // scratch directory for ready files, logs and spans
	testdata string
	seed     uint64
	seconds  time.Duration
}

func (e *env) binary(name string) string { return filepath.Join(e.bin, name) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run produces.
type outcome struct {
	tally
	metrics map[string]metric
	detail  map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, detail: map[string]any{}}
}

func (o *outcome) set(name string, value float64, unit string) {
	o.metrics[name] = metric{Value: value, Unit: unit}
}

// tally counts checked operations. A failed operation is a non-200
// response, a mismatched number or mismatched output bytes.
type tally struct {
	attempted, failed int
	failures          []string
}

// maxFailures is how many failure messages a run keeps for its record.
const maxFailures = 10

// check records one checked operation; err non-nil means it failed.
func (t *tally) check(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.failures) < maxFailures {
		t.failures = append(t.failures, err.Error())
	}
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < maxFailures {
			t.failures = append(t.failures, f)
		}
	}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	measure func(context.Context, *env) (*outcome, error)
	replay  func(context.Context, *env) (*outcome, error)
}{
	"study-slice": {measureStudy, replayStudy},
	"serve-cold":  {measureCold, replayCold},
	"serve-hot":   {measureHot, replayHot},
}

func run() error {
	name := flag.String("workload", "", "study-slice, serve-cold or serve-hot")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 15, "length of the measured phase")
	traced := flag.Int("trace", 0, "1 replays the workload through the layers and reports per-layer metrics")
	bin := flag.String("bin", "", "directory holding the built predictd, metricstudy and tracer")
	work := flag.String("work", "", "scratch directory for ready files, logs and span logs")
	record := flag.Bool("record", false, "re-record perfbench/testdata from the programs at this commit")
	flag.Parse()

	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if *bin == "" || *work == "" {
		return fmt.Errorf("-bin and -work are required (run through perfbench/run.sh)")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	e := &env{
		root: root, bin: *bin, work: *work,
		testdata: filepath.Join(root, "perfbench", "testdata"),
		seed:     *seed, seconds: time.Duration(*seconds) * time.Second,
	}
	ctx := context.Background()
	if *record {
		return recordTestdata(ctx, e)
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d, want at least 1", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace %d, want 0 or 1", *traced)
	}

	facts := hostFacts(root)
	run := w.measure
	if *traced == 1 {
		run = w.replay
	}
	out, err := run(ctx, e)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	facts["loadavg_end"] = loadAverage()

	rec, err := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"host": facts, "detail": out.detail, "failures": out.failures,
	})
	if err != nil {
		return err
	}
	res, err := json.Marshal(result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", rec, res)
	return nil
}

// hostFacts records what tells a noisy set of runs apart from a slow
// change: the CPU, its load, and the commit.
func hostFacts(root string) map[string]any {
	facts := map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"cpu_model":     "unknown",
		"loadavg_start": loadAverage(),
		"git_describe":  "unavailable",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				facts["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	// The ceiling keeps git from finding a repository above the
	// checkout when the checkout itself is not one.
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--tags")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if b, err := cmd.Output(); err == nil {
		facts["git_describe"] = strings.TrimSpace(string(b))
	}
	return facts
}

func loadAverage() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	fields := strings.Fields(string(b))
	if len(fields) < 3 {
		return "unknown"
	}
	return strings.Join(fields[:3], " ")
}
