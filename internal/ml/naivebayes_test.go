package ml

import (
	"context"
	"testing"

	"corroborate/internal/engine"
	"corroborate/internal/metrics"
)

func TestNaiveBayesSeparable(t *testing.T) {
	x, y := linearlySeparable()
	// Collapse to categorical: the sign of feature 0 determines the class,
	// which naive Bayes captures through the affirm/deny buckets.
	for i := range x {
		if x[i][0] > 0 {
			x[i][0] = 1
		} else {
			x[i][0] = -1
		}
	}
	clf := &NaiveBayes{}
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		p := clf.PredictProb(x[i])
		if (y[i] > 0) != (p >= 0.5) {
			t.Errorf("example %d misclassified: p=%v, y=%v", i, p, y[i])
		}
	}
}

func TestNaiveBayesUntrainedNeutral(t *testing.T) {
	if (&NaiveBayes{}).PredictProb([]float64{1, 0}) != 0.5 {
		t.Error("untrained classifier should return 0.5")
	}
}

func TestNaiveBayesFitErrors(t *testing.T) {
	if err := (&NaiveBayes{}).Fit(nil, nil); err == nil {
		t.Error("empty training set must be rejected")
	}
	if err := (&NaiveBayes{}).Fit([][]float64{{1}, {1, 2}}, []float64{1, -1}); err == nil {
		t.Error("ragged features must be rejected")
	}
}

func TestNaiveBayesCrossValidation(t *testing.T) {
	d := votesWorld(200)
	r, err := MLNaiveBayes{Seed: 1}.RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(d); err != nil {
		t.Fatal(err)
	}
	rep := metrics.Evaluate(d, r)
	if rep.Accuracy < 0.9 {
		t.Errorf("CV accuracy = %v on the oracle world", rep.Accuracy)
	}
}

func TestNaiveBayesSmoothingKeepsProbabilitiesInterior(t *testing.T) {
	// A vote pattern never seen at training time must not produce 0 or 1.
	x := [][]float64{{1, 0}, {1, 0}, {-1, 0}, {-1, 0}}
	y := []float64{1, 1, -1, -1}
	clf := &NaiveBayes{}
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p := clf.PredictProb([]float64{0, -1}) // both buckets unseen
	if p <= 0 || p >= 1 {
		t.Errorf("unseen pattern probability = %v, want interior", p)
	}
}
