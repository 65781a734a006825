package ml

import (
	"context"
	"math"
	"testing"

	"corroborate/internal/engine"
	"corroborate/internal/metrics"
	"corroborate/internal/truth"
)

func TestFeatures(t *testing.T) {
	d := truth.MotivatingExample()
	x := Features(d, d.FactIndex("r12")) // s2=F, s3=F, s4=T
	want := []float64{0, -1, -1, 1, 0}
	for i := range want {
		if x[i] != want[i] {
			t.Errorf("feature[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

// linearlySeparable builds examples where y = sign(x0).
func linearlySeparable() ([][]float64, []float64) {
	var x [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		v := float64(i%5) + 1
		if i%2 == 0 {
			x = append(x, []float64{v, 0.3, -0.2})
			y = append(y, 1)
		} else {
			x = append(x, []float64{-v, 0.3, -0.2})
			y = append(y, -1)
		}
	}
	return x, y
}

func TestLogisticSeparable(t *testing.T) {
	x, y := linearlySeparable()
	clf := &Logistic{}
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		p := clf.PredictProb(x[i])
		if (y[i] > 0) != (p >= 0.5) {
			t.Errorf("example %d misclassified: p=%v, y=%v", i, p, y[i])
		}
	}
	if p := clf.PredictProb([]float64{10, 0, 0}); p < 0.95 {
		t.Errorf("far positive point p=%v, want near 1", p)
	}
}

func TestSVMSeparable(t *testing.T) {
	x, y := linearlySeparable()
	clf := &SVM{Seed: 1}
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if (y[i] > 0) != (clf.Margin(x[i]) >= 0) {
			t.Errorf("example %d misclassified: margin=%v, y=%v", i, clf.Margin(x[i]), y[i])
		}
	}
}

func TestFitErrors(t *testing.T) {
	if err := (&Logistic{}).Fit(nil, nil); err == nil {
		t.Error("logistic must reject empty training sets")
	}
	if err := (&SVM{}).Fit(nil, nil); err == nil {
		t.Error("SVM must reject empty training sets")
	}
	if err := (&SVM{}).Fit([][]float64{{1}}, []float64{0.5}); err == nil {
		t.Error("SVM must reject non-±1 labels")
	}
	if err := (&Logistic{}).Fit([][]float64{{1}, {1, 2}}, []float64{1, -1}); err == nil {
		t.Error("logistic must reject ragged features")
	}
	if err := (&SVM{}).Fit([][]float64{{1}, {1, 2}}, []float64{1, -1}); err == nil {
		t.Error("SVM must reject ragged features")
	}
}

func TestUntrainedPredictsNeutral(t *testing.T) {
	if (&Logistic{}).PredictProb([]float64{1}) != 0.5 {
		t.Error("untrained logistic should return 0.5")
	}
	if (&SVM{}).PredictProb([]float64{1}) != 0.5 {
		t.Error("untrained SVM should return 0.5")
	}
}

// votesWorld builds a dataset in which the label is perfectly determined by
// one "oracle" source's vote: oracle affirms true facts and denies false
// ones; two noise sources vote arbitrarily.
func votesWorld(n int) *truth.Dataset {
	b := truth.NewBuilder()
	oracle := b.Source("oracle")
	n1 := b.Source("noise1")
	n2 := b.Source("noise2")
	for i := 0; i < n; i++ {
		name := make([]byte, 0, 8)
		name = append(name, 'f')
		for v := i; ; v /= 10 {
			name = append(name, byte('0'+v%10))
			if v < 10 {
				break
			}
		}
		f := b.Fact(string(name))
		if i%2 == 0 {
			b.Vote(f, oracle, truth.Affirm)
			b.Label(f, truth.True)
		} else {
			b.Vote(f, oracle, truth.Deny)
			b.Label(f, truth.False)
		}
		if i%3 == 0 {
			b.Vote(f, n1, truth.Affirm)
		}
		if i%5 == 0 {
			b.Vote(f, n2, truth.Affirm)
		}
	}
	return b.Build()
}

func TestCrossValidationLearnsOracleSource(t *testing.T) {
	d := votesWorld(200)
	for _, m := range []engine.Method{MLLogistic{Seed: 1}, MLSVM{Seed: 1}} {
		r, err := m.RunWith(context.Background(), d, engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if err := r.Check(d); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		rep := metrics.Evaluate(d, r)
		if rep.Accuracy < 0.95 {
			t.Errorf("%s: CV accuracy = %v, want near 1 on a separable world", m.Name(), rep.Accuracy)
		}
	}
}

func TestCrossValidationDeterministic(t *testing.T) {
	d := votesWorld(100)
	a, _ := MLLogistic{Seed: 9}.RunWith(context.Background(), d, engine.Options{})
	b, _ := MLLogistic{Seed: 9}.RunWith(context.Background(), d, engine.Options{})
	for f := range a.FactProb {
		if a.FactProb[f] != b.FactProb[f] {
			t.Fatal("same seed must reproduce identical CV predictions")
		}
	}
}

func TestCrossValidateErrors(t *testing.T) {
	// Golden set with a single class.
	b := truth.NewBuilder()
	b.AddSources("s")
	f := b.Fact("a")
	b.Vote(f, 0, truth.Affirm)
	b.Label(f, truth.True)
	one := b.Build()
	if _, err := CrossValidateWith("x", one, context.Background(), engine.Options{}, 0, func(int64) Classifier { return &Logistic{} }); err == nil {
		t.Error("single-class golden set must be rejected")
	}
}

func TestLogisticWeightsExposeDiscriminativeFeatures(t *testing.T) {
	// Train on the oracle world: the oracle source's weight must dominate.
	d := votesWorld(200)
	var x [][]float64
	var y []float64
	for f := 0; f < d.NumFacts(); f++ {
		x = append(x, Features(d, f))
		if d.Label(f) == truth.True {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	clf := &Logistic{}
	if err := clf.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	w := clf.Weights()
	oracle := d.SourceIndex("oracle")
	for s, ws := range w {
		if s == oracle {
			continue
		}
		if math.Abs(w[oracle]) <= math.Abs(ws) {
			t.Errorf("oracle weight %v should dominate source %d weight %v", w[oracle], s, ws)
		}
	}
}
