package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"hpcmetrics/internal/apps"
	"hpcmetrics/internal/machine"
)

// recordTestdata re-records every expectation in perfbench/testdata from
// the programs as built: the study slice's Table 4 and set-up output,
// every response the serve workloads can receive, and the simulated
// statistics of every stream and execution a traced run replays.
func recordTestdata(ctx context.Context, e *env) error {
	if err := os.MkdirAll(e.testdata, 0o755); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		tool string
		args []string
	}{
		{table4File, "metricstudy", studyArgs()},
		{tracerFile, "tracer", tracerArgs()},
	} {
		r, err := runTool(ctx, e, f.tool, f.args...)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(e.testdata, f.name), r.stdout, 0o644); err != nil {
			return err
		}
	}
	if err := recordServed(ctx, e); err != nil {
		return err
	}
	return recordSimstats(e)
}

// recordServed records the warm-up cell and every cell of the cold pool
// as first served, then every hot key as served from cache.
func recordServed(ctx context.Context, e *env) (err error) {
	s, err := startServer(ctx, e, 0)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, s.stop()) }()
	c := newClient(1)
	sv := served{Cold: map[string]string{}, Hot: map[string]string{}}
	fetch := func(into map[string]string, path string) error {
		status, body, err := get(ctx, c, s.url+path)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, status)
		}
		into[path] = string(body)
		return nil
	}
	cold := []string{warmPath}
	for _, round := range coldRounds(0) {
		for _, cell := range round {
			cold = append(cold, cell.path())
		}
	}
	for _, p := range cold {
		if err := fetch(sv.Cold, p); err != nil {
			return err
		}
	}
	// The first pass warms the hot keys; the second records them cached.
	for pass := 0; pass < 2; pass++ {
		for _, k := range hotKeys() {
			if err := fetch(sv.Hot, k.path); err != nil {
				return err
			}
		}
	}
	return writeJSON(e, servedFile, sv)
}

// recordSimstats replays, unguarded, every stream and execution a traced
// run can replay: the study slice's cells and kernels on all its
// machines, and every cold-pool cell on the base system.
func recordSimstats(e *env) error {
	rp, err := newReplayer(e, false)
	if err != nil {
		return err
	}
	tc, err := apps.Lookup(studyApp, studyCase)
	if err != nil {
		return err
	}
	base := machine.Base()
	all := []*machine.Config{base}
	for _, name := range studyTargets {
		cfg, err := machine.Preset(name)
		if err != nil {
			return err
		}
		all = append(all, cfg)
	}
	for _, procs := range tc.CPUCounts {
		c, err := rp.cell(0, tc, procs, base, all[1:])
		if err != nil {
			return err
		}
		if err := rp.blockKernels(0, c.app, all, false); err != nil {
			return err
		}
	}
	if err := rp.probeKernels(0, all); err != nil {
		return err
	}
	for _, t := range apps.Registry() {
		for _, procs := range coldProcs {
			c, err := rp.cell(0, t, procs, base, nil)
			if err != nil {
				return err
			}
			if err := rp.blockKernels(0, c.app, []*machine.Config{base}, false); err != nil {
				return err
			}
		}
	}
	return writeJSON(e, simstatsFile, rp.seen)
}
