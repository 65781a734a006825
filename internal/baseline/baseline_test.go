package baseline

import (
	"context"
	"math"
	"testing"

	"corroborate/internal/engine"
	"corroborate/internal/metrics"
	"corroborate/internal/truth"
)

func TestVotingMotivating(t *testing.T) {
	d := truth.MotivatingExample()
	r, err := Voting{}.RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(d); err != nil {
		t.Fatal(err)
	}
	// Voting marks everything true except r12 (2 F vs 1 T); r6 is 1 T vs
	// 1 F, a tie, which the >= threshold resolves to true.
	for f := 0; f < d.NumFacts(); f++ {
		want := truth.True
		if d.FactName(f) == "r12" {
			want = truth.False
		}
		if r.Predictions[f] != want {
			t.Errorf("Voting(%s) = %v, want %v", d.FactName(f), r.Predictions[f], want)
		}
	}
	rep := metrics.Evaluate(d, r)
	if rep.Recall != 1 {
		t.Errorf("recall = %v, want 1", rep.Recall)
	}
	if math.Abs(rep.Precision-7.0/11) > 1e-12 {
		t.Errorf("precision = %v, want 7/11", rep.Precision)
	}
}

func TestCountingMotivating(t *testing.T) {
	d := truth.MotivatingExample()
	r, err := Counting{}.RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Counting requires a strict majority of ALL 5 sources, i.e. >= 3 T
	// votes: r2 (4), r3 (3), r7, r8, r11 (3 each) qualify.
	wantTrue := map[string]bool{"r2": true, "r3": true, "r7": true, "r8": true, "r11": true}
	for f := 0; f < d.NumFacts(); f++ {
		want := truth.False
		if wantTrue[d.FactName(f)] {
			want = truth.True
		}
		if r.Predictions[f] != want {
			t.Errorf("Counting(%s) = %v, want %v", d.FactName(f), r.Predictions[f], want)
		}
	}
	rep := metrics.Evaluate(d, r)
	if rep.Precision != 1 {
		t.Errorf("precision = %v, want 1 (all 5 predicted facts are true)", rep.Precision)
	}
	if math.Abs(rep.Recall-5.0/7) > 1e-12 {
		t.Errorf("recall = %v, want 5/7", rep.Recall)
	}
}

func TestCountingExactHalfIsFalse(t *testing.T) {
	b := truth.NewBuilder()
	b.AddSources("a", "b", "c", "d")
	f := b.Fact("x")
	b.Vote(f, 0, truth.Affirm)
	b.Vote(f, 1, truth.Affirm)
	d := b.Build()
	r, err := Counting{}.RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Predictions[f] != truth.False {
		t.Error("exactly half of the sources is not 'more than half'")
	}
}

// TestTwoEstimateMotivating pins the algorithm to the paper's §2.1 numbers:
// converged trust {1, 1, 0.8, 0.9, 1}, everything true except r12, and
// Table 2's precision 0.64 / recall 1 / accuracy 0.67.
func TestTwoEstimateMotivating(t *testing.T) {
	d := truth.MotivatingExample()
	r, err := (&TwoEstimate{}).RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(d); err != nil {
		t.Fatal(err)
	}
	wantTrust := []float64{1, 1, 0.8, 0.9, 1}
	for s, want := range wantTrust {
		if math.Abs(r.Trust[s]-want) > 1e-9 {
			t.Errorf("trust[s%d] = %v, want %v", s+1, r.Trust[s], want)
		}
	}
	for f := 0; f < d.NumFacts(); f++ {
		want := truth.True
		if d.FactName(f) == "r12" {
			want = truth.False
		}
		if r.Predictions[f] != want {
			t.Errorf("TwoEstimate(%s) = %v, want %v", d.FactName(f), r.Predictions[f], want)
		}
	}
	rep := metrics.Evaluate(d, r)
	if math.Abs(rep.Precision-0.6363636363) > 1e-6 {
		t.Errorf("precision = %v, want ~0.64", rep.Precision)
	}
	if rep.Recall != 1 {
		t.Errorf("recall = %v, want 1", rep.Recall)
	}
	if math.Abs(rep.Accuracy-2.0/3) > 1e-9 {
		t.Errorf("accuracy = %v, want 0.67", rep.Accuracy)
	}
}

func TestTwoEstimateR6OutVoted(t *testing.T) {
	// The paper explains r6's F vote from s3 is out-voted by s4's T vote
	// because s4 ends with trust 0.9 > 1 - 0.8. Assert the mechanism.
	d := truth.MotivatingExample()
	r, _ := (&TwoEstimate{}).RunWith(context.Background(), d, engine.Options{})
	f := d.FactIndex("r6")
	if r.Predictions[f] != truth.True {
		t.Fatal("r6 should be (wrongly) corroborated true by TwoEstimate")
	}
	if r.FactProb[f] <= 0.5 || r.FactProb[f] >= 0.6 {
		t.Errorf("r6 probability = %v, want slightly above 0.5", r.FactProb[f])
	}
}

func TestTwoEstimateConverges(t *testing.T) {
	d := truth.MotivatingExample()
	r, _ := (&TwoEstimate{}).RunWith(context.Background(), d, engine.Options{MaxIter: engine.Int(50)})
	if r.Iterations >= 50 {
		t.Errorf("did not converge: %d iterations", r.Iterations)
	}
	// Deterministic: a second run matches exactly.
	r2, _ := (&TwoEstimate{}).RunWith(context.Background(), d, engine.Options{MaxIter: engine.Int(50)})
	for f := range r.FactProb {
		if r.FactProb[f] != r2.FactProb[f] {
			t.Fatal("TwoEstimate is not deterministic")
		}
	}
}

func TestThreeEstimateDegeneratesOnAffirmativeData(t *testing.T) {
	// Footnote 3: with mostly-T votes ThreeEstimate ~ TwoEstimate.
	d := truth.MotivatingExample()
	two, _ := (&TwoEstimate{}).RunWith(context.Background(), d, engine.Options{})
	three, err := (&ThreeEstimate{}).RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := three.Check(d); err != nil {
		t.Fatal(err)
	}
	for f := range two.Predictions {
		if two.Predictions[f] != three.Predictions[f] {
			t.Errorf("predictions diverge on %s: two=%v three=%v",
				d.FactName(f), two.Predictions[f], three.Predictions[f])
		}
	}
}

func TestThreeEstimateDifficultyOnConflict(t *testing.T) {
	// A fact with heavy disagreement is "hard"; a unanimous one is "easy".
	// Sources erring only on the hard fact should keep higher trust under
	// ThreeEstimate than under TwoEstimate.
	b := truth.NewBuilder()
	b.AddSources("a", "b", "c", "d")
	// Ten easy unanimous facts.
	for i := 0; i < 10; i++ {
		f := b.Fact(string(rune('p' + i)))
		for s := 0; s < 4; s++ {
			b.Vote(f, s, truth.Affirm)
		}
	}
	// One contested fact: a,b affirm; c,d deny.
	f := b.Fact("contested")
	b.Vote(f, 0, truth.Affirm)
	b.Vote(f, 1, truth.Affirm)
	b.Vote(f, 2, truth.Deny)
	b.Vote(f, 3, truth.Deny)
	d := b.Build()

	three, _ := (&ThreeEstimate{}).RunWith(context.Background(), d, engine.Options{})
	two, _ := (&TwoEstimate{}).RunWith(context.Background(), d, engine.Options{})
	// Whoever loses the contested fact is dampened less by ThreeEstimate.
	for s := 0; s < 4; s++ {
		if three.Trust[s] < two.Trust[s]-1e-9 {
			t.Errorf("source %d: three-estimate trust %v below two-estimate %v",
				s, three.Trust[s], two.Trust[s])
		}
	}
}

func TestNoVotesFactsAreNeutral(t *testing.T) {
	b := truth.NewBuilder()
	b.AddSources("s1", "s2")
	b.Fact("orphan")
	f := b.Fact("voted")
	b.Vote(f, 0, truth.Affirm)
	d := b.Build()
	for _, m := range []engine.Method{Voting{}, &TwoEstimate{}, &ThreeEstimate{}, &TruthFinder{}, AvgLog{}, Invest{}, PooledInvest{}} {
		r, err := m.RunWith(context.Background(), d, engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if r.FactProb[0] != 0.5 {
			t.Errorf("%s: orphan fact probability = %v, want 0.5", m.Name(), r.FactProb[0])
		}
	}
}

func TestEmptyDataset(t *testing.T) {
	d := truth.NewBuilder().Build()
	for _, m := range []engine.Method{Voting{}, Counting{}, &TwoEstimate{}, &ThreeEstimate{}, &TruthFinder{}, AvgLog{}, Invest{}, PooledInvest{}} {
		r, err := m.RunWith(context.Background(), d, engine.Options{})
		if err != nil {
			t.Fatalf("%s on empty dataset: %v", m.Name(), err)
		}
		if len(r.FactProb) != 0 {
			t.Errorf("%s: non-empty probabilities for empty dataset", m.Name())
		}
	}
}
