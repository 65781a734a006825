package corroborate_test

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"corroborate"
)

func TestQuickstartFlow(t *testing.T) {
	b := corroborate.NewBuilder()
	b.VoteNamed("dannys", "yellowpages", corroborate.Affirm)
	b.VoteNamed("dannys", "citysearch", corroborate.Affirm)
	b.VoteNamed("harbor", "menupages", corroborate.Affirm)
	b.VoteNamed("mill", "menupages", corroborate.Deny)
	b.VoteNamed("mill", "yellowpages", corroborate.Affirm)
	d := b.Build()

	r, err := corroborate.IncEstScale().RunWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(d); err != nil {
		t.Fatal(err)
	}
	if len(r.Predictions) != d.NumFacts() {
		t.Fatal("result shape mismatch")
	}
}

func TestMethodsRoster(t *testing.T) {
	names := map[string]bool{}
	d := corroborate.MotivatingExample()
	for _, m := range corroborate.Methods() {
		if names[m.Name()] {
			t.Errorf("duplicate method name %q", m.Name())
		}
		names[m.Name()] = true
		r, err := m.RunWith(context.Background(), d, corroborate.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if err := r.Check(d); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
	}
	for _, want := range []string{"Voting", "Counting", "TwoEstimate", "ThreeEstimate",
		"BayesEstimate", "ML-SVM (SMO)", "ML-Logistic", "IncEstPS", "IncEstHeu", "IncEstScale"} {
		if !names[want] {
			t.Errorf("method %q missing from roster", want)
		}
	}
}

func TestNewMethod(t *testing.T) {
	m, err := corroborate.NewMethod("incestheu")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "IncEstHeu" {
		t.Errorf("resolved %q", m.Name())
	}
	if _, err := corroborate.NewMethod("nope"); err == nil {
		t.Error("unknown method must fail")
	}
}

func TestPublicMotivatingReproduction(t *testing.T) {
	// The package-level integration of the paper's headline numbers.
	d := corroborate.MotivatingExample()
	r, err := corroborate.IncEstHeu().RunWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := corroborate.Evaluate(d, r)
	if math.Abs(rep.Accuracy-10.0/12) > 1e-9 || rep.Recall != 1 {
		t.Errorf("IncEstHeu P/R/A = %v/%v/%v, want Table 2's 0.78/1/0.83",
			rep.Precision, rep.Recall, rep.Accuracy)
	}
	two, _ := corroborate.TwoEstimate().RunWith(context.Background(), d, corroborate.RunOptions{})
	twoRep := corroborate.Evaluate(d, two)
	if math.Abs(twoRep.Accuracy-2.0/3) > 1e-9 {
		t.Errorf("TwoEstimate accuracy = %v, want 0.67", twoRep.Accuracy)
	}
}

func TestCSVRoundTripPublic(t *testing.T) {
	d := corroborate.MotivatingExample()
	path := filepath.Join(t.TempDir(), "d.csv")
	if err := corroborate.SaveCSV(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := corroborate.LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFacts() != d.NumFacts() || got.NumVotes() != d.NumVotes() {
		t.Error("round trip changed the dataset")
	}
}

func TestDetailedRunExposed(t *testing.T) {
	d := corroborate.MotivatingExample()
	run, err := corroborate.IncEstHeu().RunDetailedWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Trajectory) == 0 {
		t.Fatal("no trajectory exposed")
	}
	if len(run.Trajectory[0].Trust) != d.NumSources() {
		t.Error("trajectory trust vector mis-sized")
	}
}

func TestStatsAndMSE(t *testing.T) {
	d := corroborate.MotivatingExample()
	st := corroborate.ComputeStats(d)
	if len(st.Coverage) != d.NumSources() {
		t.Fatal("stats mis-sized")
	}
	if got := corroborate.TrustMSE([]float64{1, 0}, []float64{0, 0}); got != 0.5 {
		t.Errorf("TrustMSE = %v, want 0.5", got)
	}
}
