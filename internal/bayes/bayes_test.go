package bayes

import (
	"context"
	"testing"

	"corroborate/internal/engine"
	"corroborate/internal/metrics"
	"corroborate/internal/truth"
)

func TestBayesMotivating(t *testing.T) {
	// §2.2: BayesEstimate labels every restaurant true on Table 1 because
	// its high-precision low-recall prior gives F votes little weight;
	// precision 0.58, recall 1.
	d := truth.MotivatingExample()
	r, err := (&Estimate{Seed: 1}).RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(d); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < d.NumFacts(); f++ {
		if r.Predictions[f] != truth.True {
			t.Errorf("BayesEstimate(%s) = %v, want true (paper §2.2)", d.FactName(f), r.Predictions[f])
		}
	}
	rep := metrics.Evaluate(d, r)
	if rep.Recall != 1 {
		t.Errorf("recall = %v, want 1", rep.Recall)
	}
	if rep.Precision < 0.57 || rep.Precision > 0.60 {
		t.Errorf("precision = %v, want 7/12 = 0.58", rep.Precision)
	}
	// Table 5: trust scores near 1 for every source.
	for s, tr := range r.Trust {
		if tr < 0.8 {
			t.Errorf("trust[s%d] = %v, want near 1 (Table 5)", s+1, tr)
		}
	}
}

func TestBayesDeterministicForSeed(t *testing.T) {
	d := truth.MotivatingExample()
	a, _ := (&Estimate{Seed: 7}).RunWith(context.Background(), d, engine.Options{})
	b, _ := (&Estimate{Seed: 7}).RunWith(context.Background(), d, engine.Options{})
	for f := range a.FactProb {
		if a.FactProb[f] != b.FactProb[f] {
			t.Fatal("same seed must reproduce identical probabilities")
		}
	}
}

func TestBayesEmptyAndVoteless(t *testing.T) {
	empty := truth.NewBuilder().Build()
	if _, err := (&Estimate{}).RunWith(context.Background(), empty, engine.Options{}); err != nil {
		t.Fatalf("empty dataset: %v", err)
	}
	b := truth.NewBuilder()
	b.AddSources("s")
	b.Fact("orphan")
	d := b.Build()
	r, err := (&Estimate{Seed: 2}).RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.FactProb[0] != 0.5 {
		t.Errorf("voteless fact probability = %v, want 0.5", r.FactProb[0])
	}
}
