package core

import (
	"context"
	"testing"

	"corroborate/internal/baseline"
	driver "corroborate/internal/engine"
	"corroborate/internal/metrics"
	"corroborate/internal/truth"
)

func TestScaleOnMotivating(t *testing.T) {
	// The scale profile trades the toy's last bit of exactness for
	// stability: it must still find r6 and r12, keep recall 1, and beat
	// TwoEstimate.
	d := truth.MotivatingExample()
	r, err := NewScale().RunWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(d); err != nil {
		t.Fatal(err)
	}
	rep := metrics.Evaluate(d, r)
	if rep.Recall != 1 {
		t.Errorf("recall = %v, want 1", rep.Recall)
	}
	if rep.Confusion.TN < 2 {
		t.Errorf("TN = %d, want at least r6 and r12", rep.Confusion.TN)
	}
	two, _ := (&baseline.TwoEstimate{}).RunWith(context.Background(), d, driver.Options{})
	if rep.Accuracy <= metrics.Evaluate(d, two).Accuracy {
		t.Errorf("IncEstScale accuracy %v must beat TwoEstimate", rep.Accuracy)
	}
}

func TestScaleNameAndConstructor(t *testing.T) {
	e := NewScale()
	if e.Name() != "IncEstScale" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.DeferBand != 0.12 {
		t.Errorf("NewScale defer band = %v, want 0.12", e.DeferBand)
	}
}

// scaleScenario builds a mid-sized affirmative world with one flagger, one
// laggard and one bystander, in which the laggard exclusively backs a block
// of stale facts that the flagger partially exposes.
func scaleScenario() *truth.Dataset {
	b := truth.NewBuilder()
	flagger := b.Source("flagger")
	laggard := b.Source("laggard")
	stander := b.Source("bystander")
	// 30 solid facts backed by flagger+bystander; the laggard's catalogue
	// is stale through and through.
	for i := 0; i < 30; i++ {
		f := b.Fact(fname("ok", i))
		b.Vote(f, flagger, truth.Affirm)
		b.Vote(f, stander, truth.Affirm)
		b.Label(f, truth.True)
	}
	// 12 stale facts only the laggard lists.
	for i := 0; i < 12; i++ {
		f := b.Fact(fname("stale", i))
		b.Vote(f, laggard, truth.Affirm)
		b.Label(f, truth.False)
	}
	// 6 exposed facts: flagger marks CLOSED, laggard still lists.
	for i := 0; i < 6; i++ {
		f := b.Fact(fname("exposed", i))
		b.Vote(f, flagger, truth.Deny)
		b.Vote(f, laggard, truth.Affirm)
		b.Label(f, truth.False)
	}
	return b.Build()
}

func fname(prefix string, i int) string {
	return prefix + string(rune('a'+i/10)) + string(rune('0'+i%10))
}

func TestScaleUncoversLaggardBlock(t *testing.T) {
	d := scaleScenario()
	r, err := NewScale().RunWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := metrics.Evaluate(d, r)
	// The exposed ties must resolve false and drag the laggard's solo
	// block with them while the flagger/bystander-backed facts survive.
	if rep.Recall != 1 {
		t.Errorf("recall = %v, want 1 (true facts are backed by positive sources)", rep.Recall)
	}
	if rep.Confusion.TN != 18 {
		t.Errorf("TN = %d, want all 18 false facts", rep.Confusion.TN)
	}
	if rep.Accuracy != 1 {
		t.Errorf("accuracy = %v, want 1 on the separable scenario", rep.Accuracy)
	}
	// Trust: flagger vindicated, laggard exposed.
	fl := d.SourceIndex("flagger")
	la := d.SourceIndex("laggard")
	if r.Trust[fl] < 0.9 {
		t.Errorf("flagger trust = %v, want high", r.Trust[fl])
	}
	if r.Trust[la] > 0.4 {
		t.Errorf("laggard trust = %v, want low", r.Trust[la])
	}
}

func TestScaleTieResolvesFalseOnNegativeStream(t *testing.T) {
	// A 1F+1T tie under symmetric trust sits exactly at the threshold; the
	// scale profile must resolve it false rather than crediting the
	// laggard (the inversion bug the strict-confirmation rule prevents).
	b := truth.NewBuilder()
	flagger := b.Source("flagger")
	laggard := b.Source("laggard")
	for i := 0; i < 5; i++ {
		f := b.Fact(fname("tie", i))
		b.Vote(f, flagger, truth.Deny)
		b.Vote(f, laggard, truth.Affirm)
		b.Label(f, truth.False)
	}
	// Anchor facts so the balanced two-sided rounds engage (with only a
	// negative side the final sweep applies Eq. 2 as in the paper's last
	// round).
	for i := 0; i < 5; i++ {
		f := b.Fact(fname("anchor", i))
		b.Vote(f, flagger, truth.Affirm)
		b.Label(f, truth.True)
	}
	d := b.Build()
	r, err := NewScale().RunWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		f := d.FactIndex(fname("tie", i))
		if r.Predictions[f] != truth.False {
			t.Errorf("tie fact %s predicted %v, want false", d.FactName(f), r.Predictions[f])
		}
	}
	if r.Trust[d.SourceIndex("flagger")] <= r.Trust[d.SourceIndex("laggard")] {
		t.Error("the flagger must come out more trusted than the laggard")
	}
}

func TestBackedByPositiveProtectsMixedGroups(t *testing.T) {
	// Facts backed by one crashed source and one healthy source must stay
	// true under the scale profile even though their averaged probability
	// dips below 0.5.
	b := truth.NewBuilder()
	bad := b.Source("bad")
	good := b.Source("good")
	other := b.Source("other")
	// Expose the bad source hard: 10 conflicted facts.
	for i := 0; i < 10; i++ {
		f := b.Fact(fname("exp", i))
		b.Vote(f, bad, truth.Affirm)
		b.Vote(f, good, truth.Deny)
		b.Label(f, truth.False)
	}
	// 10 mixed true facts: bad + good.
	for i := 0; i < 10; i++ {
		f := b.Fact(fname("mix", i))
		b.Vote(f, bad, truth.Affirm)
		b.Vote(f, good, truth.Affirm)
		b.Label(f, truth.True)
	}
	// Anchor the good sources with their own facts.
	for i := 0; i < 10; i++ {
		f := b.Fact(fname("anchor", i))
		b.Vote(f, good, truth.Affirm)
		b.Vote(f, other, truth.Affirm)
		b.Label(f, truth.True)
	}
	d := b.Build()
	r, err := NewScale().RunWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f := d.FactIndex(fname("mix", i))
		if r.Predictions[f] != truth.True {
			t.Errorf("mixed fact %d predicted %v (p=%v), want true via the backed-by-positive rule",
				i, r.Predictions[f], r.FactProb[f])
		}
	}
}

func TestSoftAbsorbBoundsTrust(t *testing.T) {
	// With soft absorption no source should be pinned at exactly 0 or 1
	// on the motivating example (hard absorption pins several).
	d := truth.MotivatingExample()
	soft, err := (&IncEstimate{Strategy: SelectScale, DeferBand: 0.12, SoftAbsorb: true}).RunWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s, tr := range soft.Trust {
		if tr == 0 || tr == 1 {
			t.Errorf("soft-absorb trust[s%d] = %v, want interior", s+1, tr)
		}
	}
}

func TestFlipDeltaHIsValidButDifferent(t *testing.T) {
	d := truth.MotivatingExample()
	flip, err := (&IncEstimate{Strategy: SelectHeu, FlipDeltaH: true}).RunWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := flip.Check(d); err != nil {
		t.Fatal(err)
	}
	straight, _ := NewHeu().RunWith(context.Background(), d, driver.Options{})
	same := true
	for f := range flip.FactProb {
		if flip.FactProb[f] != straight.FactProb[f] {
			same = false
			break
		}
	}
	if same {
		t.Error("flipping the ∆H sign should change the schedule on the motivating example")
	}
}

func TestHybridRunsClean(t *testing.T) {
	d := truth.MotivatingExample()
	r, err := (&IncEstimate{Strategy: SelectHybrid}).RunWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(d); err != nil {
		t.Fatal(err)
	}
	rep := metrics.Evaluate(d, r)
	if rep.Recall != 1 {
		t.Errorf("recall = %v", rep.Recall)
	}
}

func TestScaleDeterministic(t *testing.T) {
	d := scaleScenario()
	a, _ := NewScale().RunDetailedWith(context.Background(), d, driver.Options{})
	b, _ := NewScale().RunDetailedWith(context.Background(), d, driver.Options{})
	if len(a.Trajectory) != len(b.Trajectory) {
		t.Fatal("trajectories differ")
	}
	for f := range a.FactProb {
		if a.FactProb[f] != b.FactProb[f] {
			t.Fatal("probabilities differ between identical runs")
		}
	}
}
