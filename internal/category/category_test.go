package category

import (
	"context"
	"fmt"
	"testing"

	"corroborate/internal/baseline"
	"corroborate/internal/core"
	"corroborate/internal/engine"
	"corroborate/internal/metrics"
	"corroborate/internal/truth"
)

// splitPersonality builds a world where one source is excellent in one
// borough and stale in another: per-category trust separates what a single
// flat trust cannot.
func splitPersonality() *truth.Dataset {
	b := truth.NewBuilder()
	jekyll := b.Source("jekyll") // great in manhattan, terrible in queens
	good := b.Source("good")
	flag := b.Source("flagger")
	// Manhattan: jekyll agrees with good on 10 true facts.
	for i := 0; i < 10; i++ {
		f := b.Fact(fmt.Sprintf("manhattan/ok%d", i))
		b.Vote(f, jekyll, truth.Affirm)
		b.Vote(f, good, truth.Affirm)
		b.Label(f, truth.True)
	}
	// Queens also has a healthy, well-covered majority (in any real
	// category the corroborated mass outnumbers a single laggard's solo
	// block; the selector confirms it first).
	for i := 0; i < 8; i++ {
		f := b.Fact(fmt.Sprintf("queens/popular%d", i))
		b.Vote(f, good, truth.Affirm)
		b.Vote(f, flag, truth.Affirm)
		b.Label(f, truth.True)
	}
	// Queens: jekyll's solo block of stale listings, partially exposed.
	for i := 0; i < 4; i++ {
		f := b.Fact(fmt.Sprintf("queens/exposed%d", i))
		b.Vote(f, jekyll, truth.Affirm)
		b.Vote(f, flag, truth.Deny)
		b.Label(f, truth.False)
	}
	for i := 0; i < 6; i++ {
		f := b.Fact(fmt.Sprintf("queens/stale%d", i))
		b.Vote(f, jekyll, truth.Affirm)
		b.Label(f, truth.False)
	}
	// Anchor the flagger in queens.
	for i := 0; i < 4; i++ {
		f := b.Fact(fmt.Sprintf("queens/ok%d", i))
		b.Vote(f, flag, truth.Affirm)
		b.Vote(f, good, truth.Affirm)
		b.Label(f, truth.True)
	}
	return b.Build()
}

func TestByNamePrefix(t *testing.T) {
	d := splitPersonality()
	fn := ByNamePrefix('/')
	if got := fn(d, d.FactIndex("manhattan/ok0")); got != "manhattan" {
		t.Errorf("category = %q", got)
	}
	if got := fn(d, d.FactIndex("queens/stale0")); got != "queens" {
		t.Errorf("category = %q", got)
	}
	b := truth.NewBuilder()
	b.AddSources("s")
	noSep := b.Fact("plain")
	if got := fn(b.Build(), noSep); got != "plain" {
		t.Errorf("separator-free name category = %q", got)
	}
}

func TestCategoryEstimateSeparatesPersonalities(t *testing.T) {
	d := splitPersonality()
	e := &Estimate{
		Inner:      func() engine.Method { return core.NewScale() },
		Categorize: ByNamePrefix('/'),
	}
	run, err := e.RunDetailedWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Result.Check(d); err != nil {
		t.Fatal(err)
	}
	rep := metrics.Evaluate(d, run.Result)
	if rep.Accuracy != 1 {
		t.Errorf("accuracy = %v, want 1 (queens stale block separable per category)", rep.Accuracy)
	}
	// Jekyll's trust must differ drastically across categories.
	jekyll := d.SourceIndex("jekyll")
	var manhattan, queens float64
	for _, ct := range run.PerCategory {
		switch ct.Category {
		case "manhattan":
			manhattan = ct.Trust[jekyll]
		case "queens":
			queens = ct.Trust[jekyll]
		}
	}
	if manhattan < 0.9 {
		t.Errorf("jekyll in manhattan = %v, want high", manhattan)
	}
	if queens > 0.3 {
		t.Errorf("jekyll in queens = %v, want low", queens)
	}
	// The flat (averaged) trust sits in between.
	if run.Trust[jekyll] <= queens || run.Trust[jekyll] >= manhattan {
		t.Errorf("flat trust %v should sit between %v and %v", run.Trust[jekyll], queens, manhattan)
	}
}

func TestCategoryBeatsFlatOnSplitWorld(t *testing.T) {
	d := splitPersonality()
	flat, err := core.NewScale().RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := (&Estimate{
		Inner:      func() engine.Method { return core.NewScale() },
		Categorize: ByNamePrefix('/'),
	}).RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fa := metrics.Evaluate(d, flat).Accuracy
	ca := metrics.Evaluate(d, cat).Accuracy
	if ca < fa {
		t.Errorf("per-category accuracy %v must not trail flat %v", ca, fa)
	}
}

func TestCategoryWithBaselineInner(t *testing.T) {
	d := splitPersonality()
	e := &Estimate{
		Inner:      func() engine.Method { return &baseline.TwoEstimate{} },
		Categorize: ByNamePrefix('/'),
	}
	r, err := e.RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(d); err != nil {
		t.Fatal(err)
	}
	if e.Name() != "Category(TwoEstimate)" {
		t.Errorf("Name = %q", e.Name())
	}
}

func TestCategoryConfigErrors(t *testing.T) {
	d := splitPersonality()
	if _, err := (&Estimate{Categorize: ByNamePrefix('/')}).RunWith(context.Background(), d, engine.Options{}); err == nil {
		t.Error("missing inner method must be rejected")
	}
	if _, err := (&Estimate{Inner: func() engine.Method { return core.NewScale() }}).RunWith(context.Background(), d, engine.Options{}); err == nil {
		t.Error("missing categorize function must be rejected")
	}
}

func TestCategoryEmptyDataset(t *testing.T) {
	d := truth.NewBuilder().Build()
	e := &Estimate{
		Inner:      func() engine.Method { return core.NewScale() },
		Categorize: ByNamePrefix('/'),
	}
	r, err := e.RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.FactProb) != 0 {
		t.Error("unexpected probabilities for an empty dataset")
	}
}
