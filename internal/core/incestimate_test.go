package core

import (
	"context"
	"math"
	"testing"

	"corroborate/internal/baseline"
	driver "corroborate/internal/engine"
	"corroborate/internal/metrics"
	"corroborate/internal/truth"
)

func TestSelectorString(t *testing.T) {
	if SelectHeu.String() != "IncEstHeu" || SelectPS.String() != "IncEstPS" {
		t.Error("selector names must match the paper")
	}
	if Selector(9).String() != "Selector(9)" {
		t.Error("unknown selector should format explicitly")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	d := truth.MotivatingExample()
	if _, err := (&IncEstimate{Strategy: Selector(7)}).RunWith(context.Background(), d, driver.Options{}); err == nil {
		t.Error("unknown selector must be rejected")
	}
	if _, err := (&IncEstimate{InitialTrust: 1.5}).RunWith(context.Background(), d, driver.Options{}); err == nil {
		t.Error("out-of-range initial trust must be rejected")
	}
}

// TestConfigRefusedOnBothPaths: a configuration that no run can use is
// refused up front by a batch run. A stream has no configuration to
// refuse: it always runs the scale profile, and a checkpoint that records
// any other is refused on restore (TestCheckpointRejectsInvalidState).
func TestConfigRefusedOnBothPaths(t *testing.T) {
	d := randomDataset(3, 4, 20)
	for _, tc := range []struct {
		name string
		poke func(e *IncEstimate)
	}{
		{"initial trust NaN", func(e *IncEstimate) { e.InitialTrust = math.NaN() }},
		{"initial trust -0.5", func(e *IncEstimate) { e.InitialTrust = -0.5 }},
		{"initial trust 1.5", func(e *IncEstimate) { e.InitialTrust = 1.5 }},
		{"defer band 2", func(e *IncEstimate) { e.DeferBand = 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewHeu()
			tc.poke(e)
			if r, err := e.RunWith(context.Background(), d, driver.Options{}); err == nil {
				t.Errorf("batch run accepted the configuration (first probability %v)", r.FactProb[0])
			}
		})
	}
}

// TestHeuMotivating pins IncEstHeu to the paper's §2.3 walk-through on
// Table 1: the first time point selects {r9, r12}, the false listings
// r5, r6, r12 are uncovered, the final trust vector is {0.67, 1, 1, 0.7, 1},
// and Table 2's row for "Our strategy" — precision 0.78, recall 1,
// accuracy 0.83 — is reproduced exactly.
func TestHeuMotivating(t *testing.T) {
	d := truth.MotivatingExample()
	run, err := NewHeu().RunDetailedWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Result.Check(d); err != nil {
		t.Fatal(err)
	}
	wantFalse := map[string]bool{"r5": true, "r6": true, "r12": true}
	for f := 0; f < d.NumFacts(); f++ {
		want := truth.True
		if wantFalse[d.FactName(f)] {
			want = truth.False
		}
		if run.Predictions[f] != want {
			t.Errorf("IncEstHeu(%s) = %v, want %v", d.FactName(f), run.Predictions[f], want)
		}
	}
	wantTrust := []float64{2.0 / 3, 1, 1, 0.7, 1} // paper: {0.67, 1, 1, 0.7, 1}
	for s, want := range wantTrust {
		if math.Abs(run.Trust[s]-want) > 1e-9 {
			t.Errorf("trust[s%d] = %v, want %v", s+1, run.Trust[s], want)
		}
	}
	rep := metrics.Evaluate(d, run.Result)
	if rep.Recall != 1 {
		t.Errorf("recall = %v, want 1", rep.Recall)
	}
	if math.Abs(rep.Precision-7.0/9) > 1e-9 {
		t.Errorf("precision = %v, want 0.78", rep.Precision)
	}
	if math.Abs(rep.Accuracy-10.0/12) > 1e-9 {
		t.Errorf("accuracy = %v, want 0.83", rep.Accuracy)
	}
	// The central claim: strictly better than TwoEstimate on the paper's
	// own example.
	two, _ := (&baseline.TwoEstimate{}).RunWith(context.Background(), d, driver.Options{})
	twoRep := metrics.Evaluate(d, two)
	if rep.Accuracy <= twoRep.Accuracy {
		t.Errorf("IncEstHeu accuracy %v must beat TwoEstimate %v", rep.Accuracy, twoRep.Accuracy)
	}
	if rep.Confusion.TN <= twoRep.Confusion.TN {
		t.Errorf("IncEstHeu TN %d must beat TwoEstimate %d", rep.Confusion.TN, twoRep.Confusion.TN)
	}
}

// TestHeuFirstRoundSelectsR12 asserts the entropy heuristic's first move:
// the only group with conflicting votes strong enough to project false,
// {r12}, must be the first negative selection — the same first move as the
// paper's walk-through.
func TestHeuFirstRoundSelectsR12(t *testing.T) {
	d := truth.MotivatingExample()
	run, err := NewHeu().RunDetailedWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Trajectory) == 0 {
		t.Fatal("no trajectory")
	}
	first := run.Trajectory[0].Evaluated
	found := false
	for _, f := range first {
		if d.FactName(f) == "r12" {
			found = true
		}
	}
	if !found {
		t.Errorf("first round evaluated %v, want r12 among them", first)
	}
	// r12's evaluation at t0 must drive s4's trust down to 0.5 or below.
	if s4 := run.Trajectory[0].Trust[3]; s4 > 0.5 {
		t.Errorf("trust(s4) after t0 = %v, want <= 0.5", s4)
	}
}

func TestHeuTrajectoryCoversAllFactsOnce(t *testing.T) {
	d := truth.MotivatingExample()
	run, err := NewHeu().RunDetailedWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for _, tp := range run.Trajectory {
		for _, f := range tp.Evaluated {
			seen[f]++
		}
		if len(tp.Trust) != d.NumSources() {
			t.Fatalf("time point carries %d trust scores", len(tp.Trust))
		}
	}
	if len(seen) != d.NumFacts() {
		t.Fatalf("trajectory covers %d facts, want %d", len(seen), d.NumFacts())
	}
	for f, n := range seen {
		if n != 1 {
			t.Errorf("fact %s evaluated %d times", d.FactName(f), n)
		}
	}
	if run.Iterations != len(run.Trajectory) {
		t.Error("Iterations must equal the number of time points")
	}
}

// TestPSMotivating pins IncEstPS's published failure mode: it keeps
// selecting the highest-probability groups (all evaluated true), so trust
// stays at 1 until only F-vote facts remain, and it finds barely more true
// negatives than TwoEstimate (§6.2.4).
func TestPSMotivating(t *testing.T) {
	d := truth.MotivatingExample()
	run, err := NewPS().RunDetailedWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := metrics.Evaluate(d, run.Result)
	if rep.Recall != 1 {
		t.Errorf("recall = %v, want 1", rep.Recall)
	}
	if rep.Confusion.TN != 1 {
		t.Errorf("IncEstPS TN = %d, want 1 (only r12)", rep.Confusion.TN)
	}
	// F-vote facts must be the last ones selected.
	last := run.Trajectory[len(run.Trajectory)-1].Evaluated
	if len(last) != 1 || d.FactName(last[0]) != "r12" {
		t.Errorf("last selection = %v, want the most conflicted group r12", last)
	}
	// Until F-vote facts are reached, all trust scores stay >= 0.9.
	for i, tp := range run.Trajectory[:len(run.Trajectory)-2] {
		for s, tr := range tp.Trust {
			if tr < 0.9 {
				t.Errorf("t%d: trust[s%d] = %v dipped before F-vote facts", i, s+1, tr)
			}
		}
	}
}

func TestHeuBeatsPS(t *testing.T) {
	d := truth.MotivatingExample()
	heu, _ := NewHeu().RunWith(context.Background(), d, driver.Options{})
	ps, _ := NewPS().RunWith(context.Background(), d, driver.Options{})
	ah := metrics.Evaluate(d, heu).Accuracy
	ap := metrics.Evaluate(d, ps).Accuracy
	if ah <= ap {
		t.Errorf("IncEstHeu accuracy %v must beat IncEstPS %v", ah, ap)
	}
}

// TestDefaultTrustInsensitive probes the paper's §6.1.1 observation that the
// default trust does not matter. For this ∆H formulation the result is
// exactly stable across high defaults (0.88–0.99, the neighbourhood of the
// paper's 0.9) and remains strictly better than TwoEstimate for every
// default in [0.6, 0.99]; EXPERIMENTS.md records the deviation from the
// paper's blanket "any value above 0.5" claim.
func TestDefaultTrustInsensitive(t *testing.T) {
	d := truth.MotivatingExample()
	base, err := (&IncEstimate{InitialTrust: 0.9}).RunWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, init := range []float64{0.88, 0.95, 0.99} {
		r, err := (&IncEstimate{InitialTrust: init}).RunWith(context.Background(), d, driver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for f := range r.Predictions {
			if r.Predictions[f] != base.Predictions[f] {
				t.Errorf("initial trust %v changes prediction of %s", init, d.FactName(f))
			}
		}
	}
	two, _ := (&baseline.TwoEstimate{}).RunWith(context.Background(), d, driver.Options{})
	twoAcc := metrics.Evaluate(d, two).Accuracy
	for _, init := range []float64{0.6, 0.7, 0.8, 0.9, 0.99} {
		r, err := (&IncEstimate{InitialTrust: init}).RunWith(context.Background(), d, driver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep := metrics.Evaluate(d, r)
		if rep.Recall != 1 {
			t.Errorf("init %v: recall = %v, want 1", init, rep.Recall)
		}
		if rep.Accuracy <= twoAcc {
			t.Errorf("init %v: accuracy %v must beat TwoEstimate %v", init, rep.Accuracy, twoAcc)
		}
	}
}

func TestDeterminism(t *testing.T) {
	d := truth.MotivatingExample()
	for _, e := range []*IncEstimate{NewHeu(), NewPS()} {
		a, _ := e.RunDetailedWith(context.Background(), d, driver.Options{})
		b, _ := e.RunDetailedWith(context.Background(), d, driver.Options{})
		if len(a.Trajectory) != len(b.Trajectory) {
			t.Fatalf("%s: trajectory lengths differ", e.Name())
		}
		for i := range a.Trajectory {
			if len(a.Trajectory[i].Evaluated) != len(b.Trajectory[i].Evaluated) {
				t.Fatalf("%s: t%d selections differ", e.Name(), i)
			}
			for j := range a.Trajectory[i].Evaluated {
				if a.Trajectory[i].Evaluated[j] != b.Trajectory[i].Evaluated[j] {
					t.Fatalf("%s: t%d selections differ", e.Name(), i)
				}
			}
		}
		for f := range a.FactProb {
			if a.FactProb[f] != b.FactProb[f] {
				t.Fatalf("%s: probabilities differ", e.Name())
			}
		}
	}
}

func TestEmptyAndVotelessDatasets(t *testing.T) {
	empty := truth.NewBuilder().Build()
	for _, e := range []*IncEstimate{NewHeu(), NewPS()} {
		r, err := e.RunWith(context.Background(), empty, driver.Options{})
		if err != nil {
			t.Fatalf("%s on empty: %v", e.Name(), err)
		}
		if len(r.FactProb) != 0 {
			t.Errorf("%s: unexpected probabilities", e.Name())
		}
	}

	b := truth.NewBuilder()
	b.AddSources("s")
	b.Fact("orphan1")
	b.Fact("orphan2")
	d := b.Build()
	for _, e := range []*IncEstimate{NewHeu(), NewPS()} {
		r, err := e.RunWith(context.Background(), d, driver.Options{})
		if err != nil {
			t.Fatalf("%s on voteless: %v", e.Name(), err)
		}
		for f, p := range r.FactProb {
			if p != 0.5 {
				t.Errorf("%s: voteless fact %d probability %v, want 0.5", e.Name(), f, p)
			}
			if r.Predictions[f] != truth.True {
				t.Errorf("%s: 0.5 must resolve true per Eq. 2", e.Name())
			}
		}
	}
}

func TestMaxRoundsSafetyValve(t *testing.T) {
	d := truth.MotivatingExample()
	r, err := NewHeu().RunDetailedWith(context.Background(), d, driver.Options{MaxIter: driver.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trajectory) > 2 {
		t.Errorf("MaxIter=1 produced %d time points, want <= 2 (1 + final sweep)", len(r.Trajectory))
	}
	total := 0
	for _, tp := range r.Trajectory {
		total += len(tp.Evaluated)
	}
	if total != d.NumFacts() {
		t.Errorf("evaluated %d facts, want all %d", total, d.NumFacts())
	}
}

func TestMultiValueTrustEvolves(t *testing.T) {
	// The defining property of the contribution: the trust used for
	// corroboration differs across time points (a multi-value score),
	// whereas single-value methods use one final vector.
	d := truth.MotivatingExample()
	run, _ := NewHeu().RunDetailedWith(context.Background(), d, driver.Options{})
	if len(run.Trajectory) < 2 {
		t.Fatal("expected multiple time points")
	}
	changed := false
	for i := 1; i < len(run.Trajectory); i++ {
		for s := range run.Trajectory[i].Trust {
			if math.Abs(run.Trajectory[i].Trust[s]-run.Trajectory[i-1].Trust[s]) > 1e-12 {
				changed = true
			}
		}
	}
	if !changed {
		t.Error("trust vector never changed across time points")
	}
	// Final trajectory trust equals the result's trust.
	last := run.Trajectory[len(run.Trajectory)-1].Trust
	for s := range last {
		if last[s] != run.Trust[s] {
			t.Errorf("final trajectory trust[%d] = %v, result trust = %v", s, last[s], run.Trust[s])
		}
	}
}

func TestHeuUncoversFalseAffirmativeOnlyFacts(t *testing.T) {
	// Construct the paper's core scenario at small scale: a low-quality
	// source backs several listings alone; a conflicted fact exposes it;
	// IncEstHeu must then mark the solo-backed listings false while
	// single-value TwoEstimate marks them true.
	b := truth.NewBuilder()
	bad := b.Source("bad")
	good1 := b.Source("good1")
	good2 := b.Source("good2")
	// Ten solid listings from good sources.
	for i := 0; i < 10; i++ {
		f := b.Fact("ok" + string(rune('0'+i)))
		b.Vote(f, good1, truth.Affirm)
		b.Vote(f, good2, truth.Affirm)
		b.Label(f, truth.True)
	}
	// Three stale listings only the bad source carries.
	for i := 0; i < 3; i++ {
		f := b.Fact("stale" + string(rune('0'+i)))
		b.Vote(f, bad, truth.Affirm)
		b.Label(f, truth.False)
	}
	// Two exposures: the bad source affirms facts the good sources deny.
	for i := 0; i < 2; i++ {
		f := b.Fact("exposed" + string(rune('0'+i)))
		b.Vote(f, bad, truth.Affirm)
		b.Vote(f, good1, truth.Deny)
		b.Vote(f, good2, truth.Deny)
		b.Label(f, truth.False)
	}
	d := b.Build()

	heu, err := NewHeu().RunWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f := d.FactIndex("stale" + string(rune('0'+i)))
		if heu.Predictions[f] != truth.False {
			t.Errorf("IncEstHeu should mark stale%d false, got %v (p=%v)", i, heu.Predictions[f], heu.FactProb[f])
		}
	}
	two, _ := (&baseline.TwoEstimate{}).RunWith(context.Background(), d, driver.Options{})
	ha := metrics.Evaluate(d, heu).Accuracy
	ta := metrics.Evaluate(d, two).Accuracy
	if ha <= ta {
		t.Errorf("IncEstHeu accuracy %v must beat TwoEstimate %v on the affirmative scenario", ha, ta)
	}
}
