package main

import (
	"context"
	"strings"
	"time"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/metrics"
	"hpcmetrics/internal/probes"
)

// The study slice: one cheap test case against four targets whose cache
// hierarchies differ (two-level with 32-byte L1 lines, a small 8 KB L1,
// three levels, two levels with a 1 MB L2). Probe suites are about two
// thirds of its time. One worker, because two workers on a two-core
// host swing far more from run to run than one does.
const studyApp, studyCase = "hycom", "standard"

var studyTargets = []string{machine.ERDCOrigin3800, machine.ARLXeon, machine.ARLAltix, machine.ARLOpteron}

func studyArgs() []string {
	return []string{"-only", "table4", "-csv", "-quiet", "-workers", "1",
		"-apps", studyApp + "-" + studyCase, "-targets", strings.Join(studyTargets, ",")}
}

// tracerArgs is the study slice's set-up: tracing its application once on
// the base system, the per-application step that precedes any
// prediction. It is cheap, and it brings the binary and the host to a
// steady state before the study is timed.
func tracerArgs() []string { return []string{"-app", studyApp, "-procs", "96"} }

// studySetups is how many times the study slice sets up: its set-up is
// short, so one slow spell would move a median of fewer.
const studySetups = 5

// measureStudy times whole studies, each in a fresh metricstudy process,
// for as long as -seconds allows (at least one). One operation is one
// verified Table 4.
func measureStudy(ctx context.Context, e *env) (*outcome, error) {
	wantTable, err := readTestdata(e, table4File)
	if err != nil {
		return nil, err
	}
	wantTrace, err := readTestdata(e, tracerFile)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var setups []float64
	for i := 0; i < studySetups; i++ {
		r, err := runTool(ctx, e, "tracer", tracerArgs()...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.wall.Seconds())
		out.check(checkBytes("tracer output", r.stdout, wantTrace))
	}

	var walls, cpus, rss []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < e.seconds {
		r, err := runTool(ctx, e, "metricstudy", studyArgs()...)
		if err != nil {
			return nil, err
		}
		out.check(checkBytes("Table 4", r.stdout, wantTable))
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, r.rssMB)
	}
	out.set("setup_s", median(setups), "s")
	out.set("p50_ms", median(walls)*1e3, "ms")
	out.set("ops_per_s", float64(len(walls))/sum(walls), "1/s")
	out.set("cpu_ms_per_op", median(cpus)*1e3, "ms")
	out.set("rss_mb", median(rss), "MB")
	out.detail["studies"] = len(walls)
	out.detail["wall_s"] = walls
	out.detail["setup_s"] = setups
	return out, nil
}

// replayStudy is the traced study slice. Between two untraced studies,
// which give its wall time, it replays the study's work through the
// layers: every probe suite, every base run, trace and target run, and
// every prediction. The kernel replays follow. The study's own
// orchestration (noise, aggregation, the balanced rating) is what is
// left: study.overhead_s = wall − Σ layer time.
func replayStudy(ctx context.Context, e *env) (*outcome, error) {
	wantTable, err := readTestdata(e, table4File)
	if err != nil {
		return nil, err
	}
	rp, err := newReplayer(e, true)
	if err != nil {
		return nil, err
	}
	// The untraced study runs before and after the replay, and its wall
	// time is the mean of the two: on a shared host whichever of two
	// equal runs comes second can be a few percent slower, so one run on
	// either side would bias study.overhead_s.
	var wall time.Duration
	study := func() error {
		r, err := runTool(ctx, e, "metricstudy", studyArgs()...)
		if err != nil {
			return err
		}
		rp.check(checkBytes("Table 4", r.stdout, wantTable))
		wall += r.wall / 2
		return nil
	}
	if err := study(); err != nil {
		return nil, err
	}

	tc, err := apps.Lookup(studyApp, studyCase)
	if err != nil {
		return nil, err
	}
	base := machine.Base()
	targets := make([]*machine.Config, len(studyTargets))
	for i, name := range studyTargets {
		if targets[i], err = machine.Preset(name); err != nil {
			return nil, err
		}
	}
	all := append([]*machine.Config{base}, targets...)

	root := rp.rec.begin(0, "study", tc.ID())
	prs := make(map[string]*probes.Results, len(all))
	for _, cfg := range all {
		if prs[cfg.Name], err = rp.probeSuite(root, cfg); err != nil {
			return nil, err
		}
	}
	var cells []replayedCell
	for _, procs := range tc.CPUCounts {
		c, err := rp.cell(root, tc, procs, base, targets)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	for _, m := range metrics.All() {
		for _, c := range cells {
			for _, t := range targets {
				if _, err := rp.predict(root, m, c, prs[base.Name], prs[t.Name]); err != nil {
					return nil, err
				}
			}
		}
	}
	rp.rec.end(root)
	if err := study(); err != nil {
		return nil, err
	}

	kernels := rp.rec.begin(0, "kernels", tc.ID())
	for _, c := range cells {
		if err := rp.blockKernels(kernels, c.app, all, true); err != nil {
			return nil, err
		}
	}
	if err := rp.probeKernels(kernels, all); err != nil {
		return nil, err
	}
	rp.rec.end(kernels)

	out, err := rp.finish("study-slice")
	if err != nil {
		return nil, err
	}
	layer := rp.rec.covered(root)
	out.set("study.wall_s", wall.Seconds(), "s")
	out.set("study.layer_s", layer.Seconds(), "s")
	out.set("study.overhead_s", (wall - layer).Seconds(), "s")
	return out, nil
}
