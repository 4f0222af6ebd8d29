package study

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"hpcmetrics/internal/par"
	"hpcmetrics/internal/predictor"
)

// TestPredictorParity pins the one-pipeline contract: every number behind
// the study's tables is what a Predictor answers for the same cell under
// the same World, bit for bit. The zero World is what predictd serves, so
// a served answer equals a DisableNoise study's prediction.
func TestPredictorParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a second slice study and answers both through Predictors")
	}
	t.Run("study world", func(t *testing.T) {
		res, _ := tracedSlice(t)
		checkParity(t, res, predictor.New(predictor.Config{World: sliceOptions().world()}))
	})
	t.Run("served world", func(t *testing.T) {
		opts := sliceOptions()
		opts.DisableNoise = true
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		checkParity(t, res, predictor.New(predictor.Config{}))
	})
}

// checkParity asks p, with ground truth, for every prediction in res and
// for every too-large skip. The questions fan out over the worker pool;
// the Predictor computes each shared layer once.
func checkParity(t *testing.T, res *Results, p *predictor.Predictor) {
	t.Helper()
	if len(res.Predictions) == 0 {
		t.Fatal("study made no predictions")
	}
	type question struct {
		want   Prediction
		tooBig bool
	}
	var qs []question
	for _, want := range res.Predictions {
		qs = append(qs, question{want: want})
	}
	for _, key := range res.Cells {
		for _, name := range res.TargetNames {
			if s, ok := res.SkipFor(key, name); ok && s.Reason == SkipTooLarge {
				qs = append(qs, question{want: Prediction{MetricID: 9, Key: key, Machine: name}, tooBig: true})
			}
		}
	}
	// Machine-major order puts neighbouring questions on different cells,
	// so the pool's workers lead different cell computations instead of
	// coalescing onto one.
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].want.Machine < qs[j].want.Machine })
	err := par.ForEachIndexed(context.Background(), len(qs), 0, "parity", func(ctx context.Context, i int) error {
		q := qs[i]
		key := q.want.Key
		got, err := p.Predict(ctx, predictor.Request{
			App: key.App, Case: key.Case, Procs: key.Procs,
			Machine: q.want.Machine, MetricID: q.want.MetricID, Observed: true,
		})
		switch {
		case err != nil:
			return fmt.Errorf("%s on %s, metric %d: %w", key, q.want.Machine, q.want.MetricID, err)
		case q.tooBig:
			if got.Fits || got.HasObserved {
				t.Errorf("%s on %s: the study skipped it as too large, the Predictor answers Fits=%t", key, q.want.Machine, got.Fits)
			}
			return nil
		}
		if math.Float64bits(got.PredictedSeconds) != math.Float64bits(q.want.Predicted) {
			t.Errorf("%s on %s, metric %d: predicted %v, study %v",
				key, q.want.Machine, q.want.MetricID, got.PredictedSeconds, q.want.Predicted)
		}
		if !got.HasObserved || math.Float64bits(got.ObservedSeconds) != math.Float64bits(q.want.Actual) {
			t.Errorf("%s on %s: observed %v (has %t), study %v",
				key, q.want.Machine, got.ObservedSeconds, got.HasObserved, q.want.Actual)
		}
		if math.Float64bits(got.BaseSeconds) != math.Float64bits(res.BaseTimes[key]) {
			t.Errorf("%s: base %v, study %v", key, got.BaseSeconds, res.BaseTimes[key])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
