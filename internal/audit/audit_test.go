package audit

import (
	"context"
	"fmt"
	"testing"

	"corroborate/internal/core"
	"corroborate/internal/engine"
	"corroborate/internal/truth"
)

// plannerWorld: a confident block, an uncertain block (one big group), and
// an uncertain singleton.
func plannerWorld() (*truth.Dataset, *truth.Result) {
	b := truth.NewBuilder()
	s1 := b.Source("s1")
	s2 := b.Source("s2")
	for i := 0; i < 5; i++ {
		f := b.Fact(fmt.Sprintf("confident%d", i))
		b.Vote(f, s1, truth.Affirm)
		b.Vote(f, s2, truth.Affirm)
	}
	for i := 0; i < 8; i++ {
		f := b.Fact(fmt.Sprintf("uncertain%d", i))
		b.Vote(f, s1, truth.Affirm)
	}
	lone := b.Fact("lone")
	b.Vote(lone, s2, truth.Deny)
	d := b.Build()

	r := truth.NewResult("demo", d)
	for f := 0; f < d.NumFacts(); f++ {
		switch {
		case d.FactName(f) == "lone":
			r.FactProb[f] = 0.45 // uncertain
		case d.FactName(f)[0] == 'c':
			r.FactProb[f] = 0.98 // confident
		default:
			r.FactProb[f] = 0.55 // uncertain, big group
		}
	}
	r.Finalize()
	return d, r
}

func TestPlanPrefersUncertainBigGroups(t *testing.T) {
	d, r := plannerWorld()
	plan, err := Plan(d, r, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 {
		t.Fatalf("plan size %d", len(plan))
	}
	// First pick: a member of the 8-strong uncertain group (entropy ~1 ×
	// size 8 dominates).
	if d.FactName(plan[0].Fact)[0] != 'u' {
		t.Errorf("first pick = %s, want a member of the uncertain block", d.FactName(plan[0].Fact))
	}
	if plan[0].GroupSize != 8 {
		t.Errorf("first pick group size = %d", plan[0].GroupSize)
	}
	// The lone uncertain fact should appear before a second or third
	// repeat within the big group exhausts its value... with dampening
	// 0.5: group gains 8, 4, 2; lone gain ~0.99. The confident block
	// (entropy ~0.14 × 5 = 0.7) must not be picked in the top 3.
	for _, item := range plan {
		if d.FactName(item.Fact)[0] == 'c' {
			t.Errorf("confident fact %s picked in top 3", d.FactName(item.Fact))
		}
	}
	// Gains decrease.
	for i := 1; i < len(plan); i++ {
		if plan[i].Gain > plan[i-1].Gain {
			t.Error("gains must be non-increasing")
		}
	}
}

func TestPlanDampeningSpreadsAcrossGroups(t *testing.T) {
	d, r := plannerWorld()
	// With strong dampening, the second pick leaves the big group.
	plan, err := Plan(d, r, 2, Options{Dampening: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if d.FactName(plan[0].Fact)[0] != 'u' {
		t.Fatalf("first pick = %s", d.FactName(plan[0].Fact))
	}
	if d.FactName(plan[1].Fact) != "lone" {
		t.Errorf("second pick = %s, want the lone uncertain fact", d.FactName(plan[1].Fact))
	}
}

func TestPlanSkipLabeled(t *testing.T) {
	b := truth.NewBuilder()
	s := b.Source("s")
	f1 := b.Fact("labeled")
	b.Vote(f1, s, truth.Affirm)
	b.Label(f1, truth.True)
	f2 := b.Fact("unlabeled")
	b.Vote(f2, s, truth.Deny)
	d := b.Build()
	r := truth.NewResult("demo", d)
	plan, err := Plan(d, r, 10, Options{SkipLabeled: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range plan {
		if item.Fact == f1 {
			t.Error("labeled fact must be skipped")
		}
	}
	if len(plan) != 1 {
		t.Errorf("plan size %d, want 1", len(plan))
	}
}

func TestPlanBudgetAndValidation(t *testing.T) {
	d, r := plannerWorld()
	plan, err := Plan(d, r, 1000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != d.NumFacts() {
		t.Errorf("over-budget plan size %d, want all %d facts", len(plan), d.NumFacts())
	}
	if _, err := Plan(d, r, -1, Options{}); err == nil {
		t.Error("negative budget must fail")
	}
	if _, err := Plan(d, r, 1, Options{Dampening: 2}); err == nil {
		t.Error("bad dampening must fail")
	}
	short := truth.NewResult("short", d)
	short.FactProb = short.FactProb[:1]
	if _, err := Plan(d, short, 1, Options{}); err == nil {
		t.Error("mis-shaped result must fail")
	}
	empty, err := Plan(d, r, 0, Options{})
	if err != nil || len(empty) != 0 {
		t.Error("zero budget yields an empty plan")
	}
}

func TestPlanOnRealRun(t *testing.T) {
	// End to end: plan audits from an IncEstScale run on the toy.
	d := truth.MotivatingExample()
	r, err := core.NewScale().RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(d, r, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 5 {
		t.Fatalf("plan size %d", len(plan))
	}
	seen := map[int]bool{}
	for _, item := range plan {
		if seen[item.Fact] {
			t.Error("duplicate fact in plan")
		}
		seen[item.Fact] = true
		if item.Gain < 0 {
			t.Error("negative gain")
		}
	}
}
