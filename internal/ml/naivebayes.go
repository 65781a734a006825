package ml

import (
	"context"
	"fmt"
	"math"

	"corroborate/internal/engine"
	"corroborate/internal/truth"
)

// NaiveBayes is a categorical naive-Bayes classifier over the vote
// features: each source's vote (affirm / deny / silent) is an independent
// categorical feature given the fact's truth. A third classical Weka-style
// baseline next to SMO and Logistic; like them it can exploit the missing
// votes the corroboration methods ignore. Every cell carries a Laplace
// pseudo-count of 1.
type NaiveBayes struct {
	classLogPrior [2]float64      // [false, true]
	logLik        [][2][3]float64 // per feature, class, vote-bucket
}

// bucket maps a feature value (+1/0/-1) to a categorical index.
func bucket(v float64) int {
	switch {
	case v > 0:
		return 0 // affirm
	case v < 0:
		return 1 // deny
	default:
		return 2 // silent
	}
}

// Fit implements Classifier.
func (nb *NaiveBayes) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("ml: naive bayes fit with %d examples, %d labels", len(x), len(y))
	}
	alpha := 1.0
	dim := len(x[0])
	for _, xi := range x {
		if len(xi) != dim {
			return fmt.Errorf("ml: inconsistent feature dimensions %d vs %d", len(xi), dim)
		}
	}
	var classCount [2]float64
	counts := make([][2][3]float64, dim)
	for i, xi := range x {
		cls := 0
		if y[i] > 0 {
			cls = 1
		}
		classCount[cls]++
		for j, v := range xi {
			counts[j][cls][bucket(v)]++
		}
	}
	total := classCount[0] + classCount[1]
	for cls := 0; cls < 2; cls++ {
		//lint:ignore logguard Laplace smoothing: counts are ≥ 0 and alpha > 0, so both the log argument and the divisor are strictly positive
		nb.classLogPrior[cls] = math.Log((classCount[cls] + alpha) / (total + 2*alpha))
	}
	nb.logLik = make([][2][3]float64, dim)
	for j := 0; j < dim; j++ {
		for cls := 0; cls < 2; cls++ {
			denom := classCount[cls] + 3*alpha
			for b := 0; b < 3; b++ {
				//lint:ignore logguard Laplace smoothing: counts are ≥ 0 and alpha > 0, so both the log argument and the divisor are strictly positive
				nb.logLik[j][cls][b] = math.Log((counts[j][cls][b] + alpha) / denom)
			}
		}
	}
	return nil
}

// PredictProb implements Classifier.
func (nb *NaiveBayes) PredictProb(x []float64) float64 {
	if nb.logLik == nil {
		return 0.5
	}
	logOdds := nb.classLogPrior[1] - nb.classLogPrior[0]
	for j, v := range x {
		if j >= len(nb.logLik) {
			break
		}
		b := bucket(v)
		logOdds += nb.logLik[j][1][b] - nb.logLik[j][0][b]
	}
	return sigmoid(logOdds)
}

// MLNaiveBayes is the engine.Method wrapper: 10-fold CV over the golden set.
type MLNaiveBayes struct {
	// Seed drives the fold shuffle.
	Seed int64
}

// Name implements engine.Method.
func (MLNaiveBayes) Name() string { return "ML-NaiveBayes" }

// RunWith implements engine.Method: Options.Seed overrides the fold
// shuffle (counting is deterministic).
func (m MLNaiveBayes) RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*truth.Result, error) {
	return CrossValidateWith(m.Name(), d, ctx, opts, m.Seed,
		func(int64) Classifier { return &NaiveBayes{} })
}

var (
	_ Classifier    = (*NaiveBayes)(nil)
	_ engine.Method = MLNaiveBayes{}
)
