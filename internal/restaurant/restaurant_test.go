package restaurant

import (
	"context"
	"testing"

	"corroborate/internal/core"
	"corroborate/internal/engine"
	"corroborate/internal/metrics"
	"corroborate/internal/truth"
)

func TestGenerateDefaults(t *testing.T) {
	w, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := w.Dataset
	if d.NumFacts() != 36916 {
		t.Errorf("listings = %d, want 36916", d.NumFacts())
	}
	if d.NumSources() != 6 {
		t.Errorf("sources = %d, want 6", d.NumSources())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !d.HasGolden() {
		t.Fatal("golden set must be declared")
	}
	golden := d.Golden()
	if len(golden) != 601 {
		t.Fatalf("golden size = %d, want 601", len(golden))
	}
	open := 0
	for _, f := range golden {
		if d.Label(f) == truth.True {
			open++
		}
	}
	if open != 340 {
		t.Errorf("golden open = %d, want 340", open)
	}
}

func TestFlaggedListingsNearPaper(t *testing.T) {
	w, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := truth.ComputeStats(w.Dataset)
	// Paper: 654 listings with F votes (< 2% of the crawl).
	if st.FactsWithDeny < 500 || st.FactsWithDeny > 800 {
		t.Errorf("flagged listings = %d, want ~654", st.FactsWithDeny)
	}
	// F votes come from the three sources the paper names.
	fsq := w.Dataset.SourceIndex(Foursquare)
	mp := w.Dataset.SourceIndex(MenuPages)
	yelp := w.Dataset.SourceIndex(Yelp)
	for s := 0; s < w.Dataset.NumSources(); s++ {
		if s == fsq || s == mp || s == yelp {
			continue
		}
		if st.DenyCount[s] != 0 {
			t.Errorf("source %s cast %d F votes, want 0", w.Dataset.SourceName(s), st.DenyCount[s])
		}
	}
	// Yelp flags the most, then MenuPages, then Foursquare (425/256/10).
	if !(st.DenyCount[yelp] > st.DenyCount[mp] && st.DenyCount[mp] > st.DenyCount[fsq]) {
		t.Errorf("F-vote ordering wrong: yelp=%d mp=%d fsq=%d",
			st.DenyCount[yelp], st.DenyCount[mp], st.DenyCount[fsq])
	}
}

func TestCoverageShapeMatchesTable3(t *testing.T) {
	w, err := Generate(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := truth.ComputeStats(w.Dataset)
	d := w.Dataset
	// Table 3 ordering: YellowPages > CitySearch > Yelp > Foursquare >
	// MenuPages > OpenTable.
	order := []string{YellowPages, CitySearch, Yelp, Foursquare, MenuPages, OpenTable}
	for i := 1; i < len(order); i++ {
		hi := st.Coverage[d.SourceIndex(order[i-1])]
		lo := st.Coverage[d.SourceIndex(order[i])]
		if hi <= lo {
			t.Errorf("coverage(%s)=%v should exceed coverage(%s)=%v", order[i-1], hi, order[i], lo)
		}
	}
	// Each realized coverage within a loose band of its Table 3 target.
	for s, p := range w.Profiles {
		if diff := st.Coverage[s] - p.Coverage; diff > 0.15 || diff < -0.15 {
			t.Errorf("%s coverage %v too far from target %v", p.Name, st.Coverage[s], p.Coverage)
		}
	}
}

func TestGoldenAccuracyShapeMatchesTable3(t *testing.T) {
	w, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := truth.ComputeStats(w.Dataset) // accuracy restricted to golden set
	d := w.Dataset
	// The two laggards must be the least accurate, the venue-focused
	// sources the most accurate — Table 3's key qualitative finding
	// (high coverage, low accuracy).
	for _, laggard := range []string{YellowPages, CitySearch} {
		for _, quality := range []string{MenuPages, OpenTable, Yelp, Foursquare} {
			la := st.Accuracy[d.SourceIndex(laggard)]
			qa := st.Accuracy[d.SourceIndex(quality)]
			if la >= qa {
				t.Errorf("accuracy(%s)=%v should be below accuracy(%s)=%v", laggard, la, quality, qa)
			}
		}
	}
	for s, p := range w.Profiles {
		if diff := st.Accuracy[s] - p.Accuracy; diff > 0.15 || diff < -0.15 {
			t.Errorf("%s golden accuracy %v too far from Table 3 target %v", p.Name, st.Accuracy[s], p.Accuracy)
		}
	}
}

func TestVotingBaselineNearPaper(t *testing.T) {
	// Table 4: Voting has recall 1 and precision ~0.65 on the golden set.
	w, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := votingResult(w.Dataset)
	rep := metrics.Evaluate(w.Dataset, r)
	if rep.Recall != 1 {
		t.Errorf("Voting recall = %v, want 1", rep.Recall)
	}
	if rep.Precision < 0.55 || rep.Precision > 0.75 {
		t.Errorf("Voting precision = %v, want ~0.65", rep.Precision)
	}
}

// votingResult is a minimal local Voting implementation to avoid importing
// internal/baseline (which would create an import cycle in benches that use
// both packages' test helpers).
func votingResult(d *truth.Dataset) *truth.Result {
	r := truth.NewResult("Voting", d)
	for f := 0; f < d.NumFacts(); f++ {
		votes := d.VotesOnFact(f)
		if len(votes) == 0 {
			r.FactProb[f] = 0.5
			continue
		}
		tCount := 0
		for _, sv := range votes {
			if sv.Vote == truth.Affirm {
				tCount++
			}
		}
		r.FactProb[f] = float64(tCount) / float64(len(votes))
	}
	r.Finalize()
	return r
}

func TestMostListingsAffirmativeOnly(t *testing.T) {
	w, err := Generate(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if share := w.Dataset.AffirmativeShare(); share < 0.97 {
		t.Errorf("affirmative-only share = %v, want > 0.97 (paper: >98%%)", share)
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := []Config{
		{OpenRate: 1.5},
		{GoldenSize: 100, GoldenTrue: 200},
		{Listings: 300, GoldenSize: 601},
	}
	for i, cfg := range cases {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: Generate should fail", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(Config{Listings: 2000, GoldenSize: 100, GoldenTrue: 60, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Listings: 2000, GoldenSize: 100, GoldenTrue: 60, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Dataset.NumVotes() != b.Dataset.NumVotes() {
		t.Fatal("vote counts differ")
	}
	for f := 0; f < a.Dataset.NumFacts(); f++ {
		if a.Dataset.Signature(f) != b.Dataset.Signature(f) {
			t.Fatalf("signature of fact %d differs", f)
		}
	}
	ga, gb := a.Dataset.Golden(), b.Dataset.Golden()
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatal("golden sets differ")
		}
	}
}

func TestSmallWorld(t *testing.T) {
	w, err := Generate(Config{Listings: 1500, GoldenSize: 200, GoldenTrue: 110, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w.Dataset.NumFacts() != 1500 {
		t.Errorf("listings = %d", w.Dataset.NumFacts())
	}
	if err := w.Dataset.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Open+w.Closed != 1500 {
		t.Error("open+closed mismatch")
	}
}

// TestIncEstScaleDynamicsGuard is a regression guard for the delicate
// trust dynamics the scale profile depends on: across seeds, the
// incremental estimator must always (1) beat the all-true baseline's
// accuracy, (2) reject a substantial stale block, and (3) show the
// Figure 2(b) arc — at least one laggard dipping below 0.5 mid-run.
func TestIncEstScaleDynamicsGuard(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w, err := Generate(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		run, err := core.NewScale().RunDetailedWith(context.Background(), w.Dataset, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep := metrics.Evaluate(w.Dataset, run.Result)
		base := metrics.Evaluate(w.Dataset, votingResult(w.Dataset))
		if rep.Accuracy <= base.Accuracy {
			t.Errorf("seed %d: accuracy %v must beat Voting's %v", seed, rep.Accuracy, base.Accuracy)
		}
		if rep.Confusion.TN < 80 {
			t.Errorf("seed %d: TN = %d, want a substantial stale block", seed, rep.Confusion.TN)
		}
		if rep.Recall < 0.7 {
			t.Errorf("seed %d: recall = %v collapsed", seed, rep.Recall)
		}
		dipped := false
		for _, tp := range run.Trajectory {
			for _, tr := range tp.Trust {
				if tr < 0.5 {
					dipped = true
				}
			}
		}
		if !dipped {
			t.Errorf("seed %d: no source ever dipped below 0.5 — the multi-value arc is gone", seed)
		}
	}
}
