package main

import (
	"fmt"
	"path/filepath"
	"time"

	"hpcmetrics/internal/access"
	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/machine"
	"hpcmetrics/internal/memsim"
	"hpcmetrics/internal/metrics"
	"hpcmetrics/internal/probes"
	"hpcmetrics/internal/simexec"
	"hpcmetrics/internal/trace"
	"hpcmetrics/internal/workload"
)

// endToEnd and perLayer are the metrics a run prints with -trace 0 and
// -trace 1; BENCHMARK.json lists the same names.
var (
	endToEnd = []metricName{
		{"setup_s", "s"}, {"p50_ms", "ms"}, {"ops_per_s", "1/s"},
		{"cpu_ms_per_op", "ms"}, {"rss_mb", "MB"},
	}
	perLayer = []metricName{
		{"probes.suite_s", "s"}, {"probes.maps_s", "s"}, {"probes.point_s", "s"}, {"probes.suites", "count"},
		{"simexec.run_s", "s"}, {"simexec.runs", "count"}, {"simexec.refs", "count"}, {"simexec.ns_per_ref", "ns"},
		{"memsim.ns_per_ref.unit", "ns"}, {"memsim.ns_per_ref.random", "ns"}, {"memsim.ns_per_ref.blocks", "ns"},
		{"memsim.refs", "count"}, {"memsim.misses", "count"},
		{"trace.cell_s", "s"}, {"trace.cells", "count"},
		{"access.gen_ns_per_ref", "ns"}, {"access.detect_ns_per_ref", "ns"}, {"access.refs", "count"},
		{"metrics.predict_us", "us"}, {"metrics.predicts", "count"},
		{"predictor.cold_cell_s", "s"}, {"predictor.cell_keys", "count"},
		{"predictor.hit_us", "us"}, {"predictor.hit_ratio", "ratio"},
		{"predictd.requests", "count"}, {"predictd.http_us", "us"}, {"predictd.rtt_p99_ms", "ms"}, {"predictd.shed", "count"},
		{"study.wall_s", "s"}, {"study.layer_s", "s"}, {"study.overhead_s", "s"},
		{"tracing.spans", "count"}, {"tracing.overhead_s", "s"},
	}
)

type metricName struct{ name, unit string }

// simStat is a simulated statistic of one replayed stream or execution.
// It is an exact count: a pure simulator speed-up leaves it unchanged.
type simStat struct {
	Refs   int64 `json:"refs"`
	Misses int64 `json:"misses,omitempty"`
}

// replayer drives a workload's work through the layers' public
// functions with a span around each call, and counts the work done.
type replayer struct {
	e   *env
	rec *recorder
	tally
	want map[string]simStat // recorded statistics; nil while recording
	seen map[string]simStat

	simexecRefs int64
	genRefs     int64
	detectRefs  int64
	memFed      map[string]int64 // references fed to memsim, by kernel kind
	memRefs     int64            // priced references (after warm-up)
	memMisses   int64
}

// newReplayer returns a replayer that checks every simulated statistic
// against the recorded file when guard is set.
func newReplayer(e *env, guard bool) (*replayer, error) {
	rp := &replayer{e: e, rec: newRecorder(), seen: map[string]simStat{}, memFed: map[string]int64{}}
	if guard {
		if err := loadJSON(e, simstatsFile, &rp.want); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// observe records one simulated statistic and checks it.
func (rp *replayer) observe(key string, got simStat) {
	rp.seen[key] = got
	if rp.want == nil {
		return
	}
	want, ok := rp.want[key]
	switch {
	case !ok:
		rp.check(fmt.Errorf("simulated statistics for %s were never recorded", key))
	case got != want:
		rp.check(fmt.Errorf("%s: simulated %+v, recorded %+v", key, got, want))
	default:
		rp.check(nil)
	}
}

// probeSuite runs the probe suite step by step, in the order
// probes.MeasureContext runs it.
func (rp *replayer) probeSuite(parent int, cfg *machine.Config) (*probes.Results, error) {
	suite := rp.rec.begin(parent, "probes.suite", cfg.Name)
	defer rp.rec.end(suite)
	res := &probes.Results{Machine: cfg.Name, OverlapFraction: cfg.MemOverlapFraction}
	maps := func(c *probes.Curve, kind probes.MAPSKind, dependent bool) func() error {
		return func() (err error) { *c, err = probes.MAPS(cfg, kind, nil, dependent); return err }
	}
	steps := []struct {
		layer, name string
		run         func() error
	}{
		{"probes.point", "hpl", func() (err error) { res.HPLFlopsPerSec, err = probes.HPL(cfg); return err }},
		{"probes.point", "stream", func() (err error) { res.StreamBytesPerSec, err = probes.STREAM(cfg); return err }},
		{"probes.point", "gups", func() (err error) { res.GUPSRefsPerSec, err = probes.GUPS(cfg); return err }},
		{"probes.maps", "maps-unit", maps(&res.MAPSUnit, probes.MAPSUnitStride, false)},
		{"probes.maps", "maps-random", maps(&res.MAPSRandom, probes.MAPSRandomStride, false)},
		{"probes.maps", "dep-unit", maps(&res.DepUnit, probes.MAPSUnitStride, true)},
		{"probes.maps", "dep-random", maps(&res.DepRandom, probes.MAPSRandomStride, true)},
		{"probes.point", "netbench", func() (err error) { res.Net, err = probes.Netbench(cfg); return err }},
	}
	for _, s := range steps {
		id := rp.rec.begin(suite, s.layer, cfg.Name+" "+s.name)
		err := s.run()
		rp.rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("probe %s on %s: %w", s.name, cfg.Name, err)
		}
	}
	return res, nil
}

// replayedCell is one (test case, procs) cell: its base run and trace.
type replayedCell struct {
	app         *workload.App
	baseSeconds float64
	tr          *trace.Trace
}

// cell replays one cell the way the study and the predictor compute it:
// the base-system run, the trace on the base system, and a run on every
// target.
func (rp *replayer) cell(parent int, tc apps.TestCase, procs int, base *machine.Config, targets []*machine.Config) (replayedCell, error) {
	app, err := tc.Instance(procs)
	if err != nil {
		return replayedCell{}, err
	}
	run, err := rp.execute(parent, base, app)
	if err != nil {
		return replayedCell{}, err
	}
	id := rp.rec.begin(parent, "trace.cell", cellKey(app))
	tr, err := trace.Collect(base, app)
	rp.rec.end(id)
	if err != nil {
		return replayedCell{}, err
	}
	for _, t := range targets {
		if _, err := rp.execute(parent, t, app); err != nil {
			return replayedCell{}, err
		}
	}
	return replayedCell{app: app, baseSeconds: run.Seconds, tr: tr}, nil
}

func cellKey(app *workload.App) string { return fmt.Sprintf("%s@%d", app.ID(), app.Procs) }

// execute is one ground-truth run. Its reference count is what the
// executor simulates: each block's sample plus the warm-up quarter.
func (rp *replayer) execute(parent int, cfg *machine.Config, app *workload.App) (*simexec.Result, error) {
	key := cellKey(app) + "|" + cfg.Name
	id := rp.rec.begin(parent, "simexec.run", key)
	run, err := simexec.Execute(cfg, app)
	rp.rec.end(id)
	if err != nil {
		return nil, err
	}
	var refs int64
	for i := range app.Blocks {
		n := simexec.SampleSize(app.Blocks[i].Stream)
		refs += int64(n + n/4)
	}
	rp.simexecRefs += refs
	rp.observe("simexec|"+key, simStat{Refs: refs})
	return run, nil
}

func (rp *replayer) predict(parent int, m metrics.Metric, c replayedCell, base, target *probes.Results) (float64, error) {
	id := rp.rec.begin(parent, "metrics.predict", m.Label())
	v, err := m.Predict(metrics.Context{Trace: c.tr, Base: base, Target: target, BaseSeconds: c.baseSeconds})
	rp.rec.end(id)
	return v, err
}

const (
	// kernelChunk is how many references a kernel replay generates
	// before feeding them on; each chunk is one span per layer.
	kernelChunk = 1 << 16
	// tracerGranularity is the working-set grain internal/trace gives
	// its detector.
	tracerGranularity = 512
)

// probeKernelSizes are three MAPS working-set sizes: in L1, in a
// mid-level cache, and in main memory on every machine.
var probeKernelSizes = []int64{32 << 10, 2 << 20, 64 << 20}

// blockKernels replays every block stream of app through the generator,
// optionally the tracer's detector, and each machine's memsim.
func (rp *replayer) blockKernels(parent int, app *workload.App, machines []*machine.Config, detect bool) error {
	for i := range app.Blocks {
		blk := &app.Blocks[i]
		if err := rp.kernel(parent, cellKey(app)+"/"+blk.Name, "blocks", blk.Stream, machines, detect); err != nil {
			return err
		}
	}
	return nil
}

// probeKernels replays the probes' pure unit-stride and random streams.
func (rp *replayer) probeKernels(parent int, machines []*machine.Config) error {
	for _, ws := range probeKernelSizes {
		for _, k := range []struct {
			kind string
			mix  access.Mix
		}{{"unit", access.Mix{Unit: 1}}, {"random", access.Mix{Random: 1}}} {
			spec := access.StreamSpec{WorkingSetBytes: ws, Mix: k.mix, StoreFraction: 0.25, Seed: 0x3A95 ^ uint64(ws)}
			if err := rp.kernel(parent, fmt.Sprintf("maps-%s@%d", k.kind, ws), k.kind, spec, machines, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// kernel replays one stream the way memsim.SimulateStream consumes it —
// a warm-up quarter, then the priced sample — generating each chunk once
// and feeding it to the detector and to every machine's simulator.
func (rp *replayer) kernel(parent int, key, kind string, spec access.StreamSpec, machines []*machine.Config, detect bool) error {
	n := simexec.SampleSize(spec)
	warm, total := n/4, n/4+n
	stream, err := access.NewStream(spec)
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	sims := make([]*memsim.Simulator, len(machines))
	for i, cfg := range machines {
		if sims[i], err = memsim.New(cfg.Loaded()); err != nil {
			return err
		}
	}
	var det *access.Detector
	if detect {
		det = access.NewDetectorGranularity(0, tracerGranularity)
	}
	buf := make([]access.Ref, kernelChunk)
	for done := 0; done < total; {
		chunk := buf[:min(kernelChunk, total-done)]
		id := rp.rec.begin(parent, "access.gen", key)
		for i := range chunk {
			chunk[i] = stream.Next()
		}
		rp.rec.end(id)
		rp.genRefs += int64(len(chunk))
		if det != nil {
			id := rp.rec.begin(parent, "access.detect", key)
			for _, r := range chunk {
				det.Observe(r)
			}
			rp.rec.end(id)
			rp.detectRefs += int64(len(chunk))
		}
		for i, sim := range sims {
			id := rp.rec.begin(parent, "memsim."+kind, key+"|"+machines[i].Name)
			if done <= warm && warm < done+len(chunk) {
				cut := warm - done
				feed(sim, chunk[:cut])
				sim.ResetStats()
				feed(sim, chunk[cut:])
			} else {
				feed(sim, chunk)
			}
			rp.rec.end(id)
		}
		rp.memFed[kind] += int64(len(chunk) * len(sims))
		done += len(chunk)
	}
	for i, sim := range sims {
		st := sim.Stats()
		misses := st.ServedBy[len(st.ServedBy)-1]
		rp.memRefs += st.Refs
		rp.memMisses += misses
		rp.observe("memsim|"+key+"|"+machines[i].Name, simStat{Refs: st.Refs, Misses: misses})
	}
	return nil
}

func feed(sim *memsim.Simulator, refs []access.Ref) {
	for _, r := range refs {
		sim.Access(r.Addr, r.Store)
	}
}

// finish turns the spans and counts into the per-layer metrics (zero
// for a layer the workload leaves idle) and writes the span log.
func (rp *replayer) finish(workload string) (*outcome, error) {
	out := newOutcome()
	out.tally = rp.tally
	for _, m := range perLayer {
		out.set(m.name, 0, m.unit)
	}
	st := rp.rec.stats()
	get := func(name string) layerStat {
		if s := st[name]; s != nil {
			return *s
		}
		return layerStat{}
	}
	per := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}

	suites := get("probes.suite")
	out.set("probes.suites", float64(suites.count), "count")
	out.set("probes.suite_s", per(suites.total, int64(suites.count))/1e9, "s")
	out.set("probes.maps_s", per(get("probes.maps").total, int64(suites.count))/1e9, "s")
	out.set("probes.point_s", per(get("probes.point").total, int64(suites.count))/1e9, "s")

	runs := get("simexec.run")
	out.set("simexec.run_s", runs.total.Seconds(), "s")
	out.set("simexec.runs", float64(runs.count), "count")
	out.set("simexec.refs", float64(rp.simexecRefs), "count")
	out.set("simexec.ns_per_ref", per(runs.total, rp.simexecRefs), "ns")

	for _, kind := range []string{"unit", "random", "blocks"} {
		out.set("memsim.ns_per_ref."+kind, per(get("memsim."+kind).total, rp.memFed[kind]), "ns")
	}
	out.set("memsim.refs", float64(rp.memRefs), "count")
	out.set("memsim.misses", float64(rp.memMisses), "count")

	traces := get("trace.cell")
	out.set("trace.cell_s", per(traces.total, int64(traces.count))/1e9, "s")
	out.set("trace.cells", float64(traces.count), "count")

	out.set("access.gen_ns_per_ref", per(get("access.gen").total, rp.genRefs), "ns")
	out.set("access.detect_ns_per_ref", per(get("access.detect").total, rp.detectRefs), "ns")
	out.set("access.refs", float64(rp.genRefs), "count")

	predicts := get("metrics.predict")
	out.set("metrics.predict_us", per(predicts.total, int64(predicts.count))/1e3, "us")
	out.set("metrics.predicts", float64(predicts.count), "count")

	requests := get("predictd.request")
	out.set("predictd.requests", float64(requests.count), "count")

	spans := rp.rec.count()
	out.set("tracing.spans", float64(spans), "count")
	out.set("tracing.overhead_s", (time.Duration(spans) * spanCost()).Seconds(), "s")

	layers := map[string]map[string]float64{}
	for name, s := range st {
		layers[name] = map[string]float64{"count": float64(s.count), "total_s": s.total.Seconds(), "self_s": s.self.Seconds()}
	}
	out.detail["layers"] = layers
	path := filepath.Join(rp.e.work, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, rp.e.seed))
	if err := rp.rec.write(path); err != nil {
		return nil, err
	}
	out.detail["span_log"] = path
	return out, nil
}
