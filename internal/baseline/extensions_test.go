package baseline

import (
	"context"
	"testing"

	"corroborate/internal/engine"
	"corroborate/internal/truth"
)

// conflictDataset builds a dataset where two reliable sources agree on ten
// facts and one unreliable source contradicts them, so any trust-aware
// method should side with the majority pair and downgrade the dissenter.
func conflictDataset() *truth.Dataset {
	b := truth.NewBuilder()
	good1 := b.Source("good1")
	good2 := b.Source("good2")
	bad := b.Source("bad")
	for i := 0; i < 10; i++ {
		f := b.Fact("f" + string(rune('0'+i)))
		b.Vote(f, good1, truth.Affirm)
		b.Vote(f, good2, truth.Affirm)
		b.Vote(f, bad, truth.Deny)
		b.Label(f, truth.True)
	}
	// One fact only the bad source knows.
	lone := b.Fact("lone")
	b.Vote(lone, bad, truth.Affirm)
	b.Label(lone, truth.False)
	return b.Build()
}

func TestTruthFinderSidesWithMajority(t *testing.T) {
	d := conflictDataset()
	r, err := (&TruthFinder{}).RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(d); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 10; f++ {
		if r.Predictions[f] != truth.True {
			t.Errorf("TruthFinder(%s) = %v, want true", d.FactName(f), r.Predictions[f])
		}
	}
	good := d.SourceIndex("good1")
	bad := d.SourceIndex("bad")
	if r.Trust[good] <= r.Trust[bad] {
		t.Errorf("trust(good)=%v should exceed trust(bad)=%v", r.Trust[good], r.Trust[bad])
	}
}

func TestPasternackRothVariants(t *testing.T) {
	d := conflictDataset()
	for _, m := range []engine.Method{AvgLog{}, Invest{}, PooledInvest{}} {
		r, err := m.RunWith(context.Background(), d, engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if err := r.Check(d); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for f := 0; f < 10; f++ {
			if r.Predictions[f] != truth.True {
				t.Errorf("%s(%s) = %v, want true", m.Name(), d.FactName(f), r.Predictions[f])
			}
		}
	}
}

func TestInvestGrowthConcentratesBelief(t *testing.T) {
	// With super-linear growth (g = 1.2), a claim backed by two sources
	// should not end up with less belief than a single-source claim.
	b := truth.NewBuilder()
	s1 := b.Source("s1")
	s2 := b.Source("s2")
	s3 := b.Source("s3")
	pair := b.Fact("pair")
	solo := b.Fact("solo")
	b.Vote(pair, s1, truth.Affirm)
	b.Vote(pair, s2, truth.Affirm)
	b.Vote(solo, s3, truth.Affirm)
	d := b.Build()
	r, err := Invest{}.RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.FactProb[pair] < r.FactProb[solo] {
		t.Errorf("pair-backed fact (%v) should not score below solo fact (%v)",
			r.FactProb[pair], r.FactProb[solo])
	}
}

func TestTruthFinderDeterministic(t *testing.T) {
	d := conflictDataset()
	a, _ := (&TruthFinder{}).RunWith(context.Background(), d, engine.Options{})
	b, _ := (&TruthFinder{}).RunWith(context.Background(), d, engine.Options{})
	for f := range a.FactProb {
		if a.FactProb[f] != b.FactProb[f] {
			t.Fatal("TruthFinder is not deterministic")
		}
	}
}
