// Package stats provides the small numerical toolkit the study needs:
// summary statistics over error samples, rank and linear correlation,
// and a simplex grid search for weight optimization under a sum-to-one
// constraint.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean; zero for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator); zero for
// fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// AbsSlice returns |x| element-wise.
func AbsSlice(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Abs(x)
	}
	return out
}

// Summary is the (mean |error|, standard deviation of |error|) pair the
// paper reports per metric.
type Summary struct {
	N       int
	MeanAbs float64
	StdAbs  float64
}

// Summarize computes the paper's error aggregation over signed errors.
func Summarize(signedErrors []float64) Summary {
	abs := AbsSlice(signedErrors)
	return Summary{N: len(abs), MeanAbs: Mean(abs), StdAbs: StdDev(abs)}
}

// Weights3 is a point on the 3-simplex (non-negative, sums to one).
type Weights3 [3]float64

// OptimizeSimplex3 minimizes the objective over the 3-simplex with a grid
// of the given step (e.g. 0.05), returning the best weights and objective
// value. This is how the study finds the error-minimizing balanced-rating
// weights (the paper reports 5%/50%/45%).
func OptimizeSimplex3(step float64, objective func(Weights3) float64) (Weights3, float64, error) {
	if step <= 0 || step > 1 {
		return Weights3{}, 0, fmt.Errorf("stats: bad step %g", step)
	}
	steps := int(math.Round(1 / step))
	best := Weights3{1, 0, 0}
	bestVal := math.Inf(1)
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps-i; j++ {
			k := steps - i - j
			w := Weights3{float64(i) / float64(steps), float64(j) / float64(steps), float64(k) / float64(steps)}
			if v := objective(w); v < bestVal {
				best, bestVal = w, v
			}
		}
	}
	return best, bestVal, nil
}
