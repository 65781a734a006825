package ml

import (
	"context"
	"fmt"
	"math"

	"corroborate/internal/engine"
	"corroborate/internal/truth"
)

// SVM is a linear soft-margin support vector machine trained with the
// simplified SMO algorithm (Platt 1998; Ng's simplified variant), standing
// in for Weka's "SMO" baseline: soft-margin penalty C = 1, KKT tolerance
// 1e-3, and training stops after 5 passes without a change or 200 passes
// in all.
type SVM struct {
	// Seed drives the partner-selection RNG (training is deterministic
	// for a fixed seed).
	Seed int64

	weights []float64
	bias    float64
}

// Fit implements Classifier.
func (s *SVM) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("ml: SVM fit with %d examples, %d labels", len(x), len(y))
	}
	for _, yi := range y {
		//lint:ignore floatexact ±1 labels are caller-provided exact constants; validation must reject everything else, not accept values near ±1
		if yi != 1 && yi != -1 {
			return fmt.Errorf("ml: SVM labels must be ±1, got %v", yi)
		}
	}
	c, tol := 1.0, 1e-3
	maxPasses, maxIters := 5, 200
	n := len(x)
	dim := len(x[0])
	for _, xi := range x {
		if len(xi) != dim {
			return fmt.Errorf("ml: inconsistent feature dimensions %d vs %d", len(xi), dim)
		}
	}
	rng := engine.Rand(s.Seed + 1)

	// Precompute the Gram matrix (linear kernel); golden sets are small
	// (hundreds of examples), so O(n²) memory is fine.
	gram := make([][]float64, n)
	for i := range gram {
		gram[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			k := dot(x[i], x[j])
			gram[i][j] = k
			gram[j][i] = k
		}
	}

	alpha := make([]float64, n)
	b := 0.0
	f := func(i int) float64 {
		var sum float64
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				sum += alpha[j] * y[j] * gram[i][j]
			}
		}
		return sum + b
	}

	passes, iters := 0, 0
	for passes < maxPasses && iters < maxIters {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
			if !((y[i]*ei < -tol && alpha[i] < c) || (y[i]*ei > tol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - y[j]
			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			//lint:ignore floatexact labels are validated to exactly ±1, so equality is exact by construction
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(c, c+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-c)
				hi = math.Min(c, ai+aj)
			}
			//lint:ignore floatexact SMO's degenerate-box check is exact in the reference algorithm; a collapsed [lo, hi] means no feasible step
			if lo == hi {
				continue
			}
			eta := 2*gram[i][j] - gram[i][i] - gram[j][j]
			if eta >= 0 {
				continue
			}
			alpha[j] = aj - y[j]*(ei-ej)/eta
			if alpha[j] > hi {
				alpha[j] = hi
			} else if alpha[j] < lo {
				alpha[j] = lo
			}
			if math.Abs(alpha[j]-aj) < 1e-5 {
				alpha[j] = aj
				continue
			}
			alpha[i] = ai + y[i]*y[j]*(aj-alpha[j])
			b1 := b - ei - y[i]*(alpha[i]-ai)*gram[i][i] - y[j]*(alpha[j]-aj)*gram[i][j]
			b2 := b - ej - y[i]*(alpha[i]-ai)*gram[i][j] - y[j]*(alpha[j]-aj)*gram[j][j]
			switch {
			case alpha[i] > 0 && alpha[i] < c:
				b = b1
			case alpha[j] > 0 && alpha[j] < c:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
		iters++
	}

	// Linear kernel: collapse the dual solution into a weight vector.
	s.weights = make([]float64, dim)
	for i := 0; i < n; i++ {
		if alpha[i] == 0 {
			continue
		}
		for j, v := range x[i] {
			s.weights[j] += alpha[i] * y[i] * v
		}
	}
	s.bias = b
	return nil
}

// PredictProb implements Classifier: the margin squashed by a logistic, a
// lightweight stand-in for Platt scaling.
func (s *SVM) PredictProb(x []float64) float64 {
	if s.weights == nil {
		return 0.5
	}
	return sigmoid(dot(s.weights, x) + s.bias)
}

// Margin returns the raw decision value w·x + b.
func (s *SVM) Margin(x []float64) float64 {
	if s.weights == nil {
		return 0
	}
	return dot(s.weights, x) + s.bias
}

// MLSVM is the engine.Method wrapper: 10-fold CV over the golden set with
// the SMO-trained SVM, matching the paper's "ML-SVM (SMO)" row.
type MLSVM struct {
	// Seed drives fold shuffling and SMO partner selection.
	Seed int64
}

// Name implements engine.Method.
func (MLSVM) Name() string { return "ML-SVM (SMO)" }

// RunWith implements engine.Method: Options.Seed overrides both the fold
// shuffle and the SMO partner-selection stream.
func (m MLSVM) RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*truth.Result, error) {
	return CrossValidateWith(m.Name(), d, ctx, opts, m.Seed,
		func(seed int64) Classifier { return &SVM{Seed: seed} })
}

var _ engine.Method = MLSVM{}
