package corroborate_test

// This file is the repository's front door for reviewers: one test per
// headline claim of Wu & Marian (EDBT 2014) that this codebase reproduces
// exactly. Each assertion cites the paper section it comes from. Deeper
// variants of these checks live next to the implementations; this file
// exists so that `go test -run TestPaper -v .` reads like the paper's
// Section 2.

import (
	"context"
	"math"
	"testing"

	"corroborate"
)

func TestPaperTable1Shape(t *testing.T) {
	// §2, Table 1: 5 sources, 12 restaurants, 7 true / 5 false, two facts
	// with F votes (r6 and r12).
	d := corroborate.MotivatingExample()
	if d.NumSources() != 5 || d.NumFacts() != 12 {
		t.Fatalf("shape (%d, %d)", d.NumSources(), d.NumFacts())
	}
	st := corroborate.ComputeStats(d)
	if st.FactsWithDeny != 2 {
		t.Errorf("facts with F votes = %d, want 2", st.FactsWithDeny)
	}
}

func TestPaperSection21TwoEstimate(t *testing.T) {
	// §2.1: "A direct application of the TwoEstimate algorithm on the
	// motivating example yields a result of true for all the restaurants
	// except for r12, and a trust score of {1, 1, 0.8, 0.9, 1}".
	d := corroborate.MotivatingExample()
	r, err := corroborate.TwoEstimate().RunWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 0.8, 0.9, 1}
	for s := range want {
		if math.Abs(r.Trust[s]-want[s]) > 1e-9 {
			t.Errorf("trust[s%d] = %v, want %v", s+1, r.Trust[s], want[s])
		}
	}
	for f := 0; f < d.NumFacts(); f++ {
		wantLabel := corroborate.True
		if d.FactName(f) == "r12" {
			wantLabel = corroborate.False
		}
		if r.Predictions[f] != wantLabel {
			t.Errorf("%s = %v, want %v", d.FactName(f), r.Predictions[f], wantLabel)
		}
	}
}

func TestPaperSection22BayesEstimate(t *testing.T) {
	// §2.2: "Using the BayesEstimate algorithm we obtain a result of true
	// for all restaurants, which translates to a precision of 0.58 and
	// recall of 1".
	d := corroborate.MotivatingExample()
	r, err := corroborate.BayesEstimate().RunWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := corroborate.Evaluate(d, r)
	if rep.Recall != 1 {
		t.Errorf("recall = %v, want 1", rep.Recall)
	}
	if math.Abs(rep.Precision-7.0/12) > 0.01 {
		t.Errorf("precision = %v, want 0.58", rep.Precision)
	}
}

func TestPaperSection23OurStrategy(t *testing.T) {
	// §2.3 and Table 2: "our strategy" scores precision 0.78, recall 1,
	// accuracy 0.83, uncovering r5, r6 and r12, with final trust
	// {0.67, 1, 1, 0.7, 1}; the first round processes r9 and r12.
	d := corroborate.MotivatingExample()
	run, err := corroborate.IncEstHeu().RunDetailedWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := corroborate.Evaluate(d, run.Result)
	if math.Abs(rep.Precision-7.0/9) > 1e-9 || rep.Recall != 1 || math.Abs(rep.Accuracy-10.0/12) > 1e-9 {
		t.Errorf("P/R/A = %v/%v/%v, want 0.78/1/0.83", rep.Precision, rep.Recall, rep.Accuracy)
	}
	wantTrust := []float64{2.0 / 3, 1, 1, 0.7, 1}
	for s := range wantTrust {
		if math.Abs(run.Trust[s]-wantTrust[s]) > 1e-9 {
			t.Errorf("trust[s%d] = %v, want %v", s+1, run.Trust[s], wantTrust[s])
		}
	}
	first := map[string]bool{}
	for _, f := range run.Trajectory[0].Evaluated {
		first[d.FactName(f)] = true
	}
	if !first["r9"] || !first["r12"] || len(first) != 2 {
		t.Errorf("first round = %v, want {r9, r12}", first)
	}
}

func TestPaperFootnote3ThreeEstimate(t *testing.T) {
	// Footnote 3: on mostly-affirmative data ThreeEstimate "essentially
	// simplifies to the TwoEstimate algorithm".
	d := corroborate.MotivatingExample()
	two, _ := corroborate.TwoEstimate().RunWith(context.Background(), d, corroborate.RunOptions{})
	three, err := corroborate.ThreeEstimate().RunWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for f := range two.Predictions {
		if two.Predictions[f] != three.Predictions[f] {
			t.Errorf("ThreeEstimate diverges from TwoEstimate on %s", d.FactName(f))
		}
	}
}

func TestPaperSection624IncEstPS(t *testing.T) {
	// §6.2.4: IncEstPS "repeatedly selects facts with high probability
	// which are evaluated to be true... trust scores remain at 1 until all
	// facts with only T votes have been evaluated", ending with barely any
	// true negatives.
	d := corroborate.MotivatingExample()
	run, err := corroborate.IncEstPS().RunDetailedWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := corroborate.Evaluate(d, run.Result)
	if rep.Confusion.TN != 1 {
		t.Errorf("IncEstPS TN = %d, want 1", rep.Confusion.TN)
	}
	for i, tp := range run.Trajectory[:len(run.Trajectory)-2] {
		for s, tr := range tp.Trust {
			if tr < 0.9 {
				t.Errorf("t%d: trust[s%d] = %v dipped before the F-vote facts", i, s+1, tr)
			}
		}
	}
}

func TestPaperHeadlineClaim(t *testing.T) {
	// The paper's thesis, end to end on the simulated crawl: among the
	// corroboration methods only the incremental multi-value-trust
	// estimator rejects a substantial block of stale affirmative-only
	// listings, and it has the best corroboration accuracy.
	w, err := corroborate.GenerateRestaurantWorld(corroborate.RestaurantConfig{
		Listings: 6000, GoldenSize: 400, GoldenTrue: 226, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := w.Dataset
	inc, err := corroborate.IncEstScale().RunWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	incRep := corroborate.Evaluate(d, inc)
	for _, m := range []corroborate.Method{
		corroborate.Voting(), corroborate.TwoEstimate(), corroborate.BayesEstimate(), corroborate.IncEstPS(),
	} {
		r, err := m.RunWith(context.Background(), d, corroborate.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rep := corroborate.Evaluate(d, r)
		if incRep.Accuracy <= rep.Accuracy {
			t.Errorf("IncEstScale accuracy %v must beat %s's %v", incRep.Accuracy, m.Name(), rep.Accuracy)
		}
		if incRep.Confusion.TN <= rep.Confusion.TN {
			t.Errorf("IncEstScale TN %d must beat %s's %d", incRep.Confusion.TN, m.Name(), rep.Confusion.TN)
		}
	}
}
