package ml

import (
	"context"
	"fmt"
	"math"

	"corroborate/internal/engine"
	"corroborate/internal/truth"
)

// Logistic is an L2-regularized logistic-regression classifier trained with
// full-batch gradient descent, standing in for Weka's "Logistic" baseline:
// 500 steps of 0.5 under a ridge penalty of 1e-4.
type Logistic struct {
	weights []float64
	bias    float64
}

// Fit implements Classifier.
func (l *Logistic) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("ml: logistic fit with %d examples, %d labels", len(x), len(y))
	}
	lr, l2, iters := 0.5, 1e-4, 500
	dim := len(x[0])
	for _, xi := range x {
		if len(xi) != dim {
			return fmt.Errorf("ml: inconsistent feature dimensions %d vs %d", len(xi), dim)
		}
	}
	l.weights = make([]float64, dim)
	l.bias = 0
	n := float64(len(x))
	grad := make([]float64, dim)
	for it := 0; it < iters; it++ {
		for j := range grad {
			grad[j] = 0
		}
		gradB := 0.0
		for i, xi := range x {
			// y in {-1, +1}; p = sigmoid(w·x + b) is P(y = +1).
			p := sigmoid(dot(l.weights, xi) + l.bias)
			target := 0.0
			if y[i] > 0 {
				target = 1
			}
			diff := p - target
			for j, v := range xi {
				grad[j] += diff * v
			}
			gradB += diff
		}
		for j := range l.weights {
			//lint:ignore logguard n = float64(len(x)) and Fit rejects empty training sets, so n ≥ 1
			l.weights[j] -= lr * (grad[j]/n + l2*l.weights[j])
		}
		//lint:ignore logguard n = float64(len(x)) and Fit rejects empty training sets, so n ≥ 1
		l.bias -= lr * gradB / n
	}
	return nil
}

// PredictProb implements Classifier.
func (l *Logistic) PredictProb(x []float64) float64 {
	if l.weights == nil {
		return 0.5
	}
	return sigmoid(dot(l.weights, x) + l.bias)
}

// Weights returns a copy of the trained weights (useful for inspecting
// which sources' votes discriminate, cf. §6.2.2's observation that the F
// votes are the most discriminating features).
func (l *Logistic) Weights() []float64 {
	return append([]float64(nil), l.weights...)
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// MLLogistic is the engine.Method wrapper: 10-fold CV over the golden set.
type MLLogistic struct {
	// Seed drives the fold shuffle.
	Seed int64
}

// Name implements engine.Method.
func (MLLogistic) Name() string { return "ML-Logistic" }

// RunWith implements engine.Method: Options.Seed overrides the fold
// shuffle (the descent itself is deterministic).
func (m MLLogistic) RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*truth.Result, error) {
	return CrossValidateWith(m.Name(), d, ctx, opts, m.Seed,
		func(int64) Classifier { return &Logistic{} })
}

var _ engine.Method = MLLogistic{}
