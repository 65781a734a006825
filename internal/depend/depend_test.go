package depend

import (
	"context"
	"fmt"
	"testing"

	"corroborate/internal/engine"
	"corroborate/internal/truth"
)

// copierWorld: an original source, an exact copier (sharing the original's
// errors), and two independent sources. 30 facts; the original errs on the
// last 6 (affirms false facts) and the copier replicates every vote.
func copierWorld() *truth.Dataset {
	b := truth.NewBuilder()
	orig := b.Source("original")
	copy := b.Source("copier")
	ind1 := b.Source("indep1")
	ind2 := b.Source("indep2")
	for i := 0; i < 30; i++ {
		f := b.Fact(fmt.Sprintf("f%02d", i))
		isTrue := i < 24
		if isTrue {
			b.Label(f, truth.True)
		} else {
			b.Label(f, truth.False)
		}
		// Original affirms everything (so its last 6 votes are errors);
		// the copier replicates it exactly.
		b.Vote(f, orig, truth.Affirm)
		b.Vote(f, copy, truth.Affirm)
		// Independents are right: affirm true facts, deny false ones.
		if isTrue {
			b.Vote(f, ind1, truth.Affirm)
			b.Vote(f, ind2, truth.Affirm)
		} else {
			b.Vote(f, ind1, truth.Deny)
			b.Vote(f, ind2, truth.Deny)
		}
	}
	return b.Build()
}

// oracleResult predicts exactly the ground truth.
func oracleResult(d *truth.Dataset) *truth.Result {
	r := truth.NewResult("oracle", d)
	for f := 0; f < d.NumFacts(); f++ {
		if d.Label(f) == truth.True {
			r.FactProb[f] = 1
		} else {
			r.FactProb[f] = 0
		}
	}
	r.Finalize()
	return r
}

func TestScoreFlagsTheCopier(t *testing.T) {
	d := copierWorld()
	m, err := Score(d, oracleResult(d))
	if err != nil {
		t.Fatal(err)
	}
	orig := d.SourceIndex("original")
	cop := d.SourceIndex("copier")
	i1 := d.SourceIndex("indep1")
	i2 := d.SourceIndex("indep2")
	if m[orig][cop] < 0.9 {
		t.Errorf("dependence(original, copier) = %v, want > 0.9", m[orig][cop])
	}
	// The two independents agree on everything too — but only on facts
	// where agreement is expected (they share no errors with the pair
	// beyond the truth). Their mutual score may be raised by shared true
	// votes, yet the copier pair must dominate.
	if m[orig][cop] <= m[i1][orig] {
		t.Errorf("copier pair (%v) must out-score original/independent (%v)", m[orig][cop], m[i1][orig])
	}
	// Symmetry and diagonal.
	if m[orig][cop] != m[cop][orig] {
		t.Error("matrix must be symmetric")
	}
	if m[i1][i1] != 1 || m[i2][i2] != 1 {
		t.Error("diagonal must be 1")
	}
}

func TestScoreBounds(t *testing.T) {
	d := copierWorld()
	m, err := Score(d, oracleResult(d))
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		for j := range m[i] {
			if m[i][j] < 0 || m[i][j] > 1 {
				t.Fatalf("m[%d][%d] = %v out of [0,1]", i, j, m[i][j])
			}
		}
	}
}

func TestScoreOptionValidation(t *testing.T) {
	d := copierWorld()
	short := truth.NewResult("short", d)
	short.FactProb = short.FactProb[:3]
	short.Predictions = short.Predictions[:3]
	if _, err := Score(d, short); err == nil {
		t.Error("mis-shaped result must be rejected")
	}
}

func TestWeightsDiscountCliques(t *testing.T) {
	m := Matrix{
		{1, 0.9, 0.0},
		{0.9, 1, 0.0},
		{0.0, 0.0, 1},
	}
	w := m.Weights()
	if w[2] != 1 {
		t.Errorf("independent source weight = %v, want 1", w[2])
	}
	if w[0] >= 0.6 {
		t.Errorf("clique member weight = %v, want well below 1", w[0])
	}
}

func TestDependVotingOutvotesTheClique(t *testing.T) {
	// A disputed fact: the original+copier affirm it, both independents
	// deny it. Plain voting ties (2 vs 2, resolved true); dependence-aware
	// voting collapses the clique to ~one vote and rejects the fact.
	b := truth.NewBuilder()
	orig := b.Source("original")
	cop := b.Source("copier")
	i1 := b.Source("indep1")
	i2 := b.Source("indep2")
	// Background facts establishing the copying pattern: the pair shares
	// errors the independents catch.
	for i := 0; i < 12; i++ {
		f := b.Fact(fmt.Sprintf("bg%02d", i))
		b.Vote(f, orig, truth.Affirm)
		b.Vote(f, cop, truth.Affirm)
		if i < 6 {
			b.Vote(f, i1, truth.Affirm)
			b.Vote(f, i2, truth.Affirm)
			b.Label(f, truth.True)
		} else {
			b.Vote(f, i1, truth.Deny)
			b.Vote(f, i2, truth.Deny)
			b.Label(f, truth.False)
		}
	}
	disputed := b.Fact("disputed")
	b.Vote(disputed, orig, truth.Affirm)
	b.Vote(disputed, cop, truth.Affirm)
	b.Vote(disputed, i1, truth.Deny)
	b.Vote(disputed, i2, truth.Deny)
	b.Label(disputed, truth.False)
	d := b.Build()

	r, err := Voting{}.RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(d); err != nil {
		t.Fatal(err)
	}
	if r.Predictions[disputed] != truth.False {
		t.Errorf("disputed fact = %v (p=%v), want false once the clique is discounted",
			r.Predictions[disputed], r.FactProb[disputed])
	}
	// The clique's vote weights must be below the independents'.
	if r.Trust[orig] >= r.Trust[i1] {
		t.Errorf("clique weight %v should be below independent weight %v", r.Trust[orig], r.Trust[i1])
	}
}

func TestDependVotingOnEmptyAndVoteless(t *testing.T) {
	empty := truth.NewBuilder().Build()
	if _, err := (Voting{}).RunWith(context.Background(), empty, engine.Options{}); err != nil {
		t.Fatalf("empty: %v", err)
	}
	b := truth.NewBuilder()
	b.AddSources("s")
	b.Fact("orphan")
	d := b.Build()
	r, err := Voting{}.RunWith(context.Background(), d, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.FactProb[0] != 0.5 {
		t.Errorf("voteless fact p = %v, want 0.5", r.FactProb[0])
	}
}
