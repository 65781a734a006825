package answers

import (
	"context"
	"testing"

	"corroborate/internal/baseline"
	"corroborate/internal/engine"
	"corroborate/internal/truth"
)

// japanRevenue recreates the paper's introduction example: several sources
// report $1.8 trillion for Japan's 2011 government revenue, Wikipedia gives
// the correct $1.1 trillion (and, in a separate page, a conflicting $1.97
// trillion).
func japanRevenue() []Extraction {
	return []Extraction{
		{Source: "cia-factbook", Answer: "1.8 trillion", Rank: 0},
		{Source: "quandl", Answer: "1.8 trillion", Rank: 0},
		{Source: "tradingecon", Answer: "1.8 Trillion", Rank: 0},
		{Source: "wikipedia", Answer: "1.1 trillion", Rank: 0},
		{Source: "wikipedia", Answer: "1.97 trillion", Rank: 1},
		{Source: "finance-ministry", Answer: "1.1 trillion", Rank: 0},
	}
}

func TestRankJapanRevenue(t *testing.T) {
	ranked, err := Corroborator{}.Rank(japanRevenue())
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("got %d clusters, want 3: %+v", len(ranked), ranked)
	}
	// Frequency wins without trust knowledge: 1.8 (three sources) beats
	// 1.1 (two) beats 1.97 (one, and only at rank 1).
	if ranked[0].Answer != "1.8 trillion" {
		t.Errorf("top answer = %q", ranked[0].Answer)
	}
	if ranked[1].Answer != "1.1 trillion" {
		t.Errorf("second answer = %q", ranked[1].Answer)
	}
	if ranked[2].Score >= ranked[1].Score || ranked[1].Score >= ranked[0].Score {
		t.Error("scores must be strictly ordered here")
	}
	// Case-insensitive clustering: "1.8 Trillion" joined the 1.8 cluster.
	if len(ranked[0].Sources) != 3 {
		t.Errorf("1.8 cluster sources = %v", ranked[0].Sources)
	}
}

func TestTrustOverturnsFrequency(t *testing.T) {
	// With trust learned elsewhere (e.g. from a corroboration run), the
	// minority-but-trustworthy answer must win — the intro's point that
	// the correct answer is out-voted.
	c := Corroborator{Trust: map[string]float64{
		"wikipedia":        0.95,
		"finance-ministry": 0.99,
		"cia-factbook":     0.3,
		"quandl":           0.3,
		"tradingecon":      0.3,
	}}
	ranked, err := c.Rank(japanRevenue())
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Answer != "1.1 trillion" {
		t.Errorf("top answer = %q, want the trusted minority's 1.1 trillion", ranked[0].Answer)
	}
}

func TestProminenceDecay(t *testing.T) {
	// The same source supporting two answers: the top-ranked one scores
	// higher.
	ex := []Extraction{
		{Source: "s", Answer: "alpha", Rank: 0},
		{Source: "s", Answer: "omega", Rank: 3},
	}
	ranked, err := Corroborator{}.Rank(ex)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Answer != "alpha" {
		t.Fatalf("top = %q", ranked[0].Answer)
	}
	if ranked[0].Score <= ranked[1].Score {
		t.Error("prominence decay must separate the ranks")
	}
}

func TestOriginality(t *testing.T) {
	// Ten extractions from one source are worth one extraction: a second
	// independent source beats repetition.
	repeat := make([]Extraction, 0, 10)
	for i := 0; i < 10; i++ {
		repeat = append(repeat, Extraction{Source: "loud", Answer: "echoed", Rank: 0})
	}
	repeat = append(repeat,
		Extraction{Source: "a", Answer: "confirmed", Rank: 0},
		Extraction{Source: "b", Answer: "confirmed", Rank: 0},
	)
	ranked, err := Corroborator{}.Rank(repeat)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Answer != "confirmed" {
		t.Errorf("top = %q, want the doubly-sourced answer", ranked[0].Answer)
	}
	if ranked[1].Count != 10 {
		t.Errorf("echoed cluster count = %d", ranked[1].Count)
	}
}

func TestRankValidation(t *testing.T) {
	bad := [][]Extraction{
		{{Source: "", Answer: "x"}},
		{{Source: "s", Answer: ""}},
		{{Source: "s", Answer: "x", Rank: -1}},
	}
	for i, ex := range bad {
		if _, err := (Corroborator{}).Rank(ex); err == nil {
			t.Errorf("case %d: Rank should fail", i)
		}
	}
	if _, err := (Corroborator{Threshold: 2}).Rank(nil); err == nil {
		t.Error("bad threshold must be rejected")
	}
}

func TestRankEmpty(t *testing.T) {
	ranked, err := Corroborator{}.Rank(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 0 {
		t.Error("no extractions, no answers")
	}
}

func TestScoreBounds(t *testing.T) {
	ranked, err := Corroborator{}.Rank(japanRevenue())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranked {
		if r.Score <= 0 || r.Score >= 1 {
			t.Errorf("score %v for %q out of (0, 1)", r.Score, r.Answer)
		}
	}
}

func TestToDatasetBridge(t *testing.T) {
	queries := []Query{
		{Name: "japan-revenue-2011", Extractions: japanRevenue()},
		{Name: "capital-of-australia", Extractions: []Extraction{
			{Source: "wikipedia", Answer: "Canberra", Rank: 0},
			{Source: "quandl", Answer: "Sydney", Rank: 0},
			{Source: "cia-factbook", Answer: "Canberra", Rank: 0},
		}},
	}
	d, err := Corroborator{}.ToDataset(queries)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3 clusters for the revenue question + 2 for the capital.
	if d.NumFacts() != 5 {
		t.Fatalf("facts = %d, want 5", d.NumFacts())
	}
	// Wikipedia affirms two revenue clusters and denies the third.
	wiki := d.SourceIndex("wikipedia")
	if wiki < 0 {
		t.Fatal("wikipedia not interned")
	}
	affirms, denies := 0, 0
	for _, fv := range d.VotesBySource(wiki) {
		switch fv.Vote {
		case truth.Affirm:
			affirms++
		case truth.Deny:
			denies++
		}
	}
	if affirms != 3 || denies != 2 { // 1.1 + 1.97 + canberra affirmed; 1.8 + sydney denied
		t.Errorf("wikipedia affirms=%d denies=%d, want 3/2", affirms, denies)
	}
	// The bridged dataset is consumable by any method.
	r, err := (&baseline.TwoEstimate{}).RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(d); err != nil {
		t.Fatal(err)
	}
}

func TestToDatasetValidation(t *testing.T) {
	if _, err := (Corroborator{}).ToDataset([]Query{{Name: ""}}); err == nil {
		t.Error("unnamed query must fail")
	}
}
