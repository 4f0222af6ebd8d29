package study

// Chaos tests: the study harness under deterministic fault injection.
// Every assertion is about convergence — a transient storm must retry to
// the same bytes a clean run produces, a permanent fault must cost its
// cells and nothing else, a stall must be reclaimed by the deadline, and
// a killed run must resume from its checkpoint without re-executing —
// never about retry ordering, which is scheduling-dependent.

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcmetrics/internal/faults"
	"hpcmetrics/internal/obs"
	"hpcmetrics/internal/persist"
)

// chaosSlice is a 1-app × 2-machine slice: big enough to exercise every
// pipeline stage, small enough for -short and -race.
func chaosSlice() Options {
	return Options{
		Apps:    []string{"avus-standard"},
		Targets: []string{"ARL_Opteron", "MHPCC_P3"},
	}
}

// TestStudyTransientStormConverges: with every executor identity failing
// twice before healing, a study with a retry budget completes and its
// results are deeply identical to a clean run's — chaos must be
// invisible in the output, not just survived.
func TestStudyTransientStormConverges(t *testing.T) {
	clean, err := Run(chaosSlice())
	if err != nil {
		t.Fatal(err)
	}

	opts := chaosSlice()
	opts.MaxAttempts = 4
	opts.Faults = faults.New(1, faults.Rule{
		Point: faults.PointExecBlock, Kind: faults.Transient, Rate: 1, Burst: 2,
	})
	opts.Obs = obs.New()
	stormy, err := Run(opts)
	if err != nil {
		t.Fatalf("study did not survive the transient storm: %v", err)
	}

	if fired := opts.Faults.Fired(faults.Transient); fired == 0 {
		t.Fatal("no transient faults fired; the storm never happened")
	}
	if len(stormy.Skips) != 0 {
		t.Errorf("transient storm left %d skip cells, want none (all faults heal)", len(stormy.Skips))
	}
	if !reflect.DeepEqual(clean.Observed, stormy.Observed) {
		t.Error("Observed differs between clean and stormy runs")
	}
	if !reflect.DeepEqual(clean.BaseTimes, stormy.BaseTimes) {
		t.Error("BaseTimes differs between clean and stormy runs")
	}
	if !reflect.DeepEqual(clean.Predictions, stormy.Predictions) {
		t.Error("Predictions differ between clean and stormy runs")
	}
	if got := opts.Obs.Metrics.Counter("retry_retries_total").Value(); got == 0 {
		t.Error("retry_retries_total = 0 despite injected transients")
	}
	if a, r := opts.Obs.Metrics.Counter("retry_attempts_total").Value(),
		opts.Obs.Metrics.Counter("retry_retries_total").Value(); r > a {
		t.Errorf("retries (%d) exceed attempts (%d)", r, a)
	}
}

// TestStudyPermanentFaultSkipsNotCrashes: a permanent fault on one
// target costs exactly that target's observations — recorded as skips
// with their attempt count — and never the run.
func TestStudyPermanentFaultSkipsNotCrashes(t *testing.T) {
	opts := chaosSlice()
	opts.MaxAttempts = 4
	opts.Faults = faults.New(1, faults.Rule{
		Point: faults.PointExecBlock, Kind: faults.Permanent, Rate: 1, Match: "ARL_Opteron",
	})
	opts.Obs = obs.New()
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("permanent fault crashed the harness: %v", err)
	}

	for _, key := range res.Cells {
		s, ok := res.SkipFor(key, "ARL_Opteron")
		if !ok {
			t.Errorf("%s on ARL_Opteron: no skip recorded", key)
			continue
		}
		if s.Reason != SkipError {
			t.Errorf("%s skip reason = %q, want %q", key, s.Reason, SkipError)
		}
		// The classifier must fail fast: a permanent fault never earns the
		// transient budget's extra attempts.
		if s.Attempts != 1 {
			t.Errorf("%s skip attempts = %d, want 1 (permanent fails fast)", key, s.Attempts)
		}
		if !strings.Contains(s.Detail, "injected permanent fault") {
			t.Errorf("%s skip detail %q does not name the fault", key, s.Detail)
		}
		if _, observed := res.Observed[key]["ARL_Opteron"]; observed {
			t.Errorf("%s observed on ARL_Opteron despite its skip", key)
		}
		if _, observed := res.Observed[key]["MHPCC_P3"]; !observed {
			t.Errorf("%s lost its MHPCC_P3 observation to another target's fault", key)
		}
	}
	if got := opts.Obs.Metrics.Counter("study_cells_skipped_error_total").Value(); got != int64(len(res.Cells)) {
		t.Errorf("error-skip counter = %d, want %d", got, len(res.Cells))
	}
	// Predictions still flow from the surviving target.
	if len(res.Predictions) == 0 {
		t.Error("no predictions despite a healthy second target")
	}
}

// TestStudyStallReclaimedByDeadline: a stalled execution outlives every
// attempt's CellTimeout and is recorded as a timeout skip with its full
// attempt count — the deadline, not the stall, decides when it ends.
func TestStudyStallReclaimedByDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out per-attempt deadlines")
	}
	opts := Options{
		Apps:        []string{"avus-standard"},
		Targets:     []string{"ARL_Opteron", "MHPCC_P3"},
		MaxAttempts: 2,
		// The slowest real unit (the MHPCC_P3 probe) takes ~2.5s; 12s of
		// deadline never clips real work but reclaims the 10-minute stall.
		CellTimeout: 12 * time.Second,
	}
	// The stall dwarfs the deadline, and the burst is high enough that
	// every retry stalls again — only the deadline ends these attempts.
	opts.Faults = faults.New(1, faults.Rule{
		Point: faults.PointExecBlock, Kind: faults.Stall, Rate: 1,
		Burst: 100, Stall: 10 * time.Minute, Match: "ARL_Opteron",
	})
	opts.Obs = obs.New()

	start := time.Now()
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("stalled study did not complete: %v", err)
	}
	// 3 cells × 2 attempts × 2s deadline plus real work; an un-reclaimed
	// stall would take 10 minutes.
	if elapsed := time.Since(start); elapsed > 5*time.Minute {
		t.Errorf("study took %v; stalls were not reclaimed by the deadline", elapsed)
	}
	for _, key := range res.Cells {
		s, ok := res.SkipFor(key, "ARL_Opteron")
		if !ok {
			t.Errorf("%s on ARL_Opteron: no skip recorded", key)
			continue
		}
		if s.Reason != SkipTimeout {
			t.Errorf("%s skip reason = %q, want %q", key, s.Reason, SkipTimeout)
		}
		if s.Attempts != 2 {
			t.Errorf("%s skip attempts = %d, want the full budget of 2", key, s.Attempts)
		}
		if _, observed := res.Observed[key]["MHPCC_P3"]; !observed {
			t.Errorf("%s lost its MHPCC_P3 observation to the ARL stall", key)
		}
	}
	if got := opts.Obs.Metrics.Counter("study_cells_skipped_timeout_total").Value(); got != int64(len(res.Cells)) {
		t.Errorf("timeout-skip counter = %d, want %d", got, len(res.Cells))
	}
	if got := opts.Obs.Metrics.Counter("retry_timeouts_total").Value(); got < int64(2*len(res.Cells)) {
		t.Errorf("retry_timeouts_total = %d, want at least %d (every attempt timed out)", got, 2*len(res.Cells))
	}
}

// execSpanCount reads how many study/observe/exec spans a traced run
// emitted — the direct measure of re-executed simulation work.
func execSpanCount(o *obs.Obs) int64 {
	for _, st := range o.Tracer.PhaseStats() {
		if st.Path == "study/observe/exec" {
			return st.Count
		}
	}
	return 0
}

// TestStudyCheckpointResume kills a study mid-run and resumes it: the
// resumed run must skip the checkpointed work (fewer exec spans, resumed
// counter up) and produce results deeply identical to an uninterrupted
// run — JSON round-trips float64 exactly, so not one bit may move.
func TestStudyCheckpointResume(t *testing.T) {
	slice := Options{
		Apps:    []string{"avus-standard"},
		Targets: []string{"ARL_Opteron"},
		Workers: 1, // deterministic cell order, so the cancel point is stable
	}

	full := slice
	full.Obs = obs.New()
	fullRes, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	fullExec := execSpanCount(full.Obs)
	if fullExec == 0 {
		t.Fatal("reference run emitted no exec spans")
	}

	// Run B: same options, checkpointed, killed from its own progress
	// stream as soon as the first cell lands in the journal (the append
	// happens before the "observed" line).
	path := filepath.Join(t.TempDir(), "study.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := slice
	killed.CheckpointPath = path
	killed.Progress = &cancelOnObserve{cancel: cancel}
	if _, err := RunContext(ctx, killed); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}

	// Run C: resume. It must finish, match the uninterrupted run exactly,
	// and measurably not repeat the journaled work.
	resumedOpts := slice
	resumedOpts.CheckpointPath = path
	resumedOpts.Resume = true
	resumedOpts.Obs = obs.New()
	resumedRes, err := Run(resumedOpts)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}

	if !reflect.DeepEqual(fullRes.Observed, resumedRes.Observed) {
		t.Error("Observed differs between uninterrupted and resumed runs")
	}
	if !reflect.DeepEqual(fullRes.BaseTimes, resumedRes.BaseTimes) {
		t.Error("BaseTimes differs between uninterrupted and resumed runs")
	}
	if !reflect.DeepEqual(fullRes.Predictions, resumedRes.Predictions) {
		t.Error("Predictions differ between uninterrupted and resumed runs")
	}
	if !reflect.DeepEqual(fullRes.Balanced, resumedRes.Balanced) {
		t.Error("Balanced rating differs between uninterrupted and resumed runs")
	}

	if got := resumedOpts.Obs.Metrics.Counter("study_checkpoint_resumed_total").Value(); got < 3 {
		t.Errorf("resumed counter = %d, want >= 3 (two probes and at least one cell)", got)
	}
	resumedExec := execSpanCount(resumedOpts.Obs)
	if resumedExec >= fullExec {
		t.Errorf("resumed run executed %d cells vs %d uninterrupted; checkpointed work was repeated",
			resumedExec, fullExec)
	}
}

// TestStudyResumeRejectsDifferentOptions: a checkpoint journals its
// study's options fingerprint; resuming into a different grid must fail
// loudly instead of splicing incompatible results.
func TestStudyResumeRejectsDifferentOptions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "study.ckpt")
	a := Options{Apps: []string{"avus-standard"}, Targets: []string{"ARL_Opteron"}, CheckpointPath: path}
	if _, err := Run(a); err != nil {
		t.Fatal(err)
	}
	b := Options{Apps: []string{"rfcth-standard"}, Targets: []string{"ARL_Opteron"}, CheckpointPath: path, Resume: true}
	if _, err := Run(b); err == nil || !strings.Contains(err.Error(), "different options") {
		t.Errorf("resume into a different grid returned %v, want an options-tag error", err)
	}
}

// TestStudyResumeRejectsDifferentFaultSeed: the options fingerprint must
// cover the fault plan — resuming a fault-injected study under a
// different seed would splice cells from two different experiments into
// one results table. The checkpoint header is written directly (no study
// run needed: the rejection happens at journal open, before any cell
// computes), which keeps this test cheap enough for the race suite.
func TestStudyResumeRejectsDifferentFaultSeed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "study.ckpt")
	a := Options{
		Apps: []string{"avus-standard"}, Targets: []string{"ARL_Opteron"},
		CheckpointPath: path, Faults: faults.New(1),
	}
	if _, err := persist.CreateCheckpoint(path, a.optionsTag()); err != nil {
		t.Fatal(err)
	}
	b := a
	b.Faults = faults.New(2)
	b.Resume = true
	if _, err := Run(b); err == nil || !strings.Contains(err.Error(), "different options") {
		t.Errorf("resume under a different fault seed returned %v, want an options-tag error", err)
	}
	rule := faults.Rule{Point: faults.PointExecBlock, Kind: faults.Transient, Rate: 1}
	c := a
	c.Faults = faults.New(1, rule)
	c.Resume = true
	if _, err := Run(c); err == nil || !strings.Contains(err.Error(), "different options") {
		t.Errorf("resume under an added fault rule returned %v, want an options-tag error", err)
	}
	// The identical fault plan opens the journal cleanly (full-resume
	// round-trips are covered by TestStudyCheckpointResume).
	if _, err := persist.OpenCheckpoint(path, a.optionsTag()); err != nil {
		t.Errorf("identical fault plan rejected at journal open: %v", err)
	}
}

// TestOptionsTagStable pins the journal options tag byte for byte: a
// journal carries it in its header, so any change to its format strands
// every journal written by an earlier build.
func TestOptionsTagStable(t *testing.T) {
	o := Options{Apps: []string{"avus-standard"}, Targets: []string{"ARL_Opteron", "MHPCC_P3"}, MaxAttempts: 4, CellTimeout: time.Second}
	want := "apps=avus-standard;targets=ARL_Opteron,MHPCC_P3;noise=false;idle=false;nodeps=false;attempts=4;timeout=1s;faults="
	if got := o.optionsTag(); got != want {
		t.Errorf("optionsTag() = %q, want %q", got, want)
	}
}

// TestForEachIndexedJoinsAllErrors: a multi-worker failure reports every
// worker's error (satellite of the robustness PR) — errors.Is finds each
// one, and the joined message lists the lowest index first.
func TestForEachIndexedJoinsAllErrors(t *testing.T) {
	errA := errors.New("index 0 failed")
	errB := errors.New("index 1 failed")
	var barrier sync.WaitGroup
	barrier.Add(2)
	err := forEachIndexed(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		barrier.Done()
		barrier.Wait()
		if i == 0 {
			return errA
		}
		return errB
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("err = %v, want both worker errors joined", err)
	}
	msg := err.Error()
	if strings.Index(msg, "index 0") > strings.Index(msg, "index 1") {
		t.Errorf("joined message %q does not list the lowest index first", msg)
	}
}
