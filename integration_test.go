package corroborate_test

import (
	"context"
	"fmt"
	"testing"

	"corroborate"
)

// adversarialDatasets is a battery of degenerate and hostile dataset
// shapes. Every method must either return a structurally valid result or a
// clean error on each of them — never panic, hang, or emit NaNs.
func adversarialDatasets() map[string]*corroborate.Dataset {
	out := make(map[string]*corroborate.Dataset)

	out["empty"] = corroborate.NewBuilder().Build()

	b := corroborate.NewBuilder()
	b.AddSources("s1")
	b.Fact("voteless")
	out["single voteless fact"] = b.Build()

	b = corroborate.NewBuilder()
	b.AddSources("lone")
	for i := 0; i < 10; i++ {
		f := b.Fact(fmt.Sprintf("f%d", i))
		b.Vote(f, 0, corroborate.Affirm)
		b.Label(f, corroborate.True)
	}
	out["single source"] = b.Build()

	b = corroborate.NewBuilder()
	b.AddSources("denier1", "denier2")
	for i := 0; i < 8; i++ {
		f := b.Fact(fmt.Sprintf("f%d", i))
		b.Vote(f, 0, corroborate.Deny)
		b.Vote(f, 1, corroborate.Deny)
		b.Label(f, corroborate.False)
	}
	out["all denials"] = b.Build()

	b = corroborate.NewBuilder()
	b.AddSources("yes", "no")
	for i := 0; i < 12; i++ {
		f := b.Fact(fmt.Sprintf("f%d", i))
		b.Vote(f, 0, corroborate.Affirm)
		b.Vote(f, 1, corroborate.Deny)
		if i%2 == 0 {
			b.Label(f, corroborate.True)
		} else {
			b.Label(f, corroborate.False)
		}
	}
	out["perfect contradiction"] = b.Build()

	b = corroborate.NewBuilder()
	b.AddSources("a", "b", "c")
	for i := 0; i < 50; i++ {
		f := b.Fact(fmt.Sprintf("f%02d", i))
		for s := 0; s < 3; s++ {
			b.Vote(f, s, corroborate.Affirm)
		}
		b.Label(f, corroborate.True)
	}
	out["one giant unanimous group"] = b.Build()

	b = corroborate.NewBuilder()
	for s := 0; s < 40; s++ {
		b.Source(fmt.Sprintf("s%02d", s))
	}
	f := b.Fact("crowded")
	for s := 0; s < 40; s++ {
		v := corroborate.Affirm
		if s%3 == 0 {
			v = corroborate.Deny
		}
		b.Vote(f, s, v)
	}
	b.Label(f, corroborate.True)
	out["one fact, forty sources"] = b.Build()

	// Labels present but golden set explicitly empty.
	b = corroborate.NewBuilder()
	b.AddSources("x", "y")
	f1 := b.Fact("p")
	b.Vote(f1, 0, corroborate.Affirm)
	b.Label(f1, corroborate.True)
	b.Golden([]int{})
	out["empty golden set"] = b.Build()

	return out
}

func TestAllMethodsSurviveAdversarialShapes(t *testing.T) {
	suite := append(corroborate.Methods(), corroborate.DependVoting())
	for name, d := range adversarialDatasets() {
		d := d
		t.Run(name, func(t *testing.T) {
			for _, m := range suite {
				r, err := m.RunWith(context.Background(), d, corroborate.RunOptions{})
				if err != nil {
					// A clean, descriptive error is acceptable for
					// methods with hard preconditions (e.g. the ML
					// methods need a two-class golden set).
					if err.Error() == "" {
						t.Errorf("%s: empty error message", m.Name())
					}
					continue
				}
				if cerr := r.Check(d); cerr != nil {
					t.Errorf("%s on %q: invalid result: %v", m.Name(), name, cerr)
				}
			}
		})
	}
}

func TestIncrementalVariantsSurviveAdversarialShapes(t *testing.T) {
	variants := []struct {
		e    *corroborate.IncEstimate
		opts corroborate.RunOptions
	}{
		{e: corroborate.IncEstHeu()},
		{e: corroborate.IncEstPS()},
		{e: corroborate.IncEstScale()},
		{e: &corroborate.IncEstimate{SoftAbsorb: true}},
		{e: &corroborate.IncEstimate{FlipDeltaH: true}},
		{e: &corroborate.IncEstimate{FullGroups: true}},
		{e: corroborate.IncEstHeu(), opts: corroborate.RunOptions{MaxIter: corroborate.OptInt(1)}},
		{e: &corroborate.IncEstimate{DeferBand: 0.3}},
	}
	for name, d := range adversarialDatasets() {
		d := d
		t.Run(name, func(t *testing.T) {
			for i, v := range variants {
				run, err := v.e.RunDetailedWith(context.Background(), d, v.opts)
				if err != nil {
					t.Errorf("variant %d on %q: %v", i, name, err)
					continue
				}
				if cerr := run.Result.Check(d); cerr != nil {
					t.Errorf("variant %d on %q: invalid result: %v", i, name, cerr)
				}
				// Every fact decided exactly once.
				seen := make(map[int]bool)
				for _, tp := range run.Trajectory {
					for _, f := range tp.Evaluated {
						if seen[f] {
							t.Errorf("variant %d on %q: fact %d decided twice", i, name, f)
						}
						seen[f] = true
					}
				}
				if len(seen) != d.NumFacts() {
					t.Errorf("variant %d on %q: decided %d of %d facts", i, name, len(seen), d.NumFacts())
				}
			}
		})
	}
}

// TestCrossMethodInvariants checks properties that must hold for every
// method on a realistic labeled world.
func TestCrossMethodInvariants(t *testing.T) {
	w, err := corroborate.GenerateRestaurantWorld(corroborate.RestaurantConfig{
		Listings: 1500, GoldenSize: 200, GoldenTrue: 120, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := w.Dataset
	for _, m := range corroborate.Methods() {
		r, err := m.RunWith(context.Background(), d, corroborate.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if err := r.Check(d); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		rep := corroborate.Evaluate(d, r)
		for metricName, v := range map[string]float64{
			"precision": rep.Precision, "recall": rep.Recall,
			"accuracy": rep.Accuracy, "f1": rep.F1,
		} {
			if v < 0 || v > 1 || v != v {
				t.Errorf("%s: %s = %v out of range", m.Name(), metricName, v)
			}
		}
		// Determinism: a second run must agree exactly.
		r2, err := m.RunWith(context.Background(), d, corroborate.RunOptions{})
		if err != nil {
			t.Fatalf("%s rerun: %v", m.Name(), err)
		}
		for f := range r.FactProb {
			if r.FactProb[f] != r2.FactProb[f] {
				t.Errorf("%s: nondeterministic probability at fact %d", m.Name(), f)
				break
			}
		}
	}
}
