package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev(nil); got != 0 {
		t.Errorf("StdDev(nil) = %g", got)
	}
	if got := StdDev([]float64{7}); got != 0 {
		t.Errorf("StdDev(single) = %g", got)
	}
	// Known value: sample stddev of {2,4,4,4,5,5,7,9} is ~2.138.
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(got, 2.13809, 1e-4) {
		t.Errorf("StdDev = %g, want ~2.138", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{-10, 10, -20, 20})
	if s.N != 4 {
		t.Errorf("N = %d", s.N)
	}
	if !almostEqual(s.MeanAbs, 15, 1e-12) {
		t.Errorf("MeanAbs = %g, want 15", s.MeanAbs)
	}
	// abs errors are {10,10,20,20}: sample stddev = 5.7735.
	if !almostEqual(s.StdAbs, 5.7735, 1e-3) {
		t.Errorf("StdAbs = %g, want ~5.77", s.StdAbs)
	}
}

func TestOptimizeSimplex3(t *testing.T) {
	// Objective minimized at w = (0, 0.5, 0.5).
	target := Weights3{0, 0.5, 0.5}
	obj := func(w Weights3) float64 {
		var d float64
		for i := range w {
			d += (w[i] - target[i]) * (w[i] - target[i])
		}
		return d
	}
	w, v, err := OptimizeSimplex3(0.05, obj)
	if err != nil {
		t.Fatal(err)
	}
	if v > 1e-9 {
		t.Fatalf("optimum value %g at %v, want 0 at %v", v, w, target)
	}
	for i := range w {
		if !almostEqual(w[i], target[i], 1e-9) {
			t.Fatalf("weights %v, want %v", w, target)
		}
	}
}

func TestOptimizeSimplex3StaysOnSimplex(t *testing.T) {
	count := 0
	_, _, err := OptimizeSimplex3(0.1, func(w Weights3) float64 {
		count++
		sum := w[0] + w[1] + w[2]
		if !almostEqual(sum, 1, 1e-9) || w[0] < 0 || w[1] < 0 || w[2] < 0 {
			t.Fatalf("off-simplex point %v", w)
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	// Grid with step 0.1: C(12,2) = 66 points.
	if count != 66 {
		t.Fatalf("visited %d grid points, want 66", count)
	}
}

func TestOptimizeSimplex3BadStep(t *testing.T) {
	if _, _, err := OptimizeSimplex3(0, func(Weights3) float64 { return 0 }); err == nil {
		t.Error("step 0 accepted")
	}
	if _, _, err := OptimizeSimplex3(2, func(Weights3) float64 { return 0 }); err == nil {
		t.Error("step 2 accepted")
	}
}

func TestAbsSlice(t *testing.T) {
	got := AbsSlice([]float64{-1, 2, -3})
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AbsSlice = %v, want %v", got, want)
		}
	}
}
