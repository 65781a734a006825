package core

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	driver "corroborate/internal/engine"
	"corroborate/internal/synth"
	"corroborate/internal/truth"
)

// equivCase is one entry of the equivalence matrix: a configuration and
// the round cap both implementations run under (0: none). The engine takes
// the cap as Options.MaxIter, the reference as its safety valve.
type equivCase struct {
	e      *IncEstimate
	rounds int
}

// runs returns the reference run and the engine run of the case.
func (c equivCase) runs(d *truth.Dataset) (want, got *Run, refErr, engErr error) {
	opts := driver.Options{}
	if c.rounds > 0 {
		opts.MaxIter = driver.Int(c.rounds)
	}
	want, refErr = runRef(context.Background(), c.e, d, c.rounds)
	got, engErr = c.e.RunDetailedWith(context.Background(), d, opts)
	return want, got, refErr, engErr
}

// equivConfigs is the strategy/knob matrix the engine must reproduce
// bit-for-bit.
func equivConfigs() []equivCase {
	return []equivCase{
		{e: NewHeu()},
		{e: NewPS()},
		{e: NewScale()},
		{e: &IncEstimate{Strategy: SelectHybrid}},
		{e: &IncEstimate{SoftAbsorb: true}},
		{e: &IncEstimate{FlipDeltaH: true}},
		{e: &IncEstimate{FullGroups: true}},
		{e: &IncEstimate{DeferBand: 0.1}},
		{e: &IncEstimate{InitialTrust: 0.7}},
		{e: NewHeu(), rounds: 3},
	}
}

// requireRunsIdentical asserts the two runs are byte-identical: same
// probabilities, predictions, trust, and per-round trajectory. No epsilon —
// the engine's caches are exact, so any drift is a bug.
func requireRunsIdentical(t *testing.T, label string, got, want *Run) {
	t.Helper()
	if len(got.FactProb) != len(want.FactProb) {
		t.Fatalf("%s: FactProb lengths %d vs %d", label, len(got.FactProb), len(want.FactProb))
	}
	for f := range want.FactProb {
		if got.FactProb[f] != want.FactProb[f] {
			t.Fatalf("%s: FactProb[%d] = %v, reference %v", label, f, got.FactProb[f], want.FactProb[f])
		}
		if got.Predictions[f] != want.Predictions[f] {
			t.Fatalf("%s: Predictions[%d] = %v, reference %v", label, f, got.Predictions[f], want.Predictions[f])
		}
	}
	if len(got.Trust) != len(want.Trust) {
		t.Fatalf("%s: Trust lengths differ", label)
	}
	for s := range want.Trust {
		if got.Trust[s] != want.Trust[s] {
			t.Fatalf("%s: Trust[%d] = %v, reference %v", label, s, got.Trust[s], want.Trust[s])
		}
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: Iterations = %d, reference %d", label, got.Iterations, want.Iterations)
	}
	if len(got.Trajectory) != len(want.Trajectory) {
		t.Fatalf("%s: trajectory length %d, reference %d", label, len(got.Trajectory), len(want.Trajectory))
	}
	for i := range want.Trajectory {
		g, w := got.Trajectory[i], want.Trajectory[i]
		if len(g.Evaluated) != len(w.Evaluated) {
			t.Fatalf("%s: t%d evaluated %d facts, reference %d", label, i, len(g.Evaluated), len(w.Evaluated))
		}
		for j := range w.Evaluated {
			if g.Evaluated[j] != w.Evaluated[j] {
				t.Fatalf("%s: t%d selected fact %d, reference %d", label, i, g.Evaluated[j], w.Evaluated[j])
			}
		}
		for s := range w.Trust {
			if g.Trust[s] != w.Trust[s] {
				t.Fatalf("%s: t%d trust[%d] = %v, reference %v", label, i, s, g.Trust[s], w.Trust[s])
			}
		}
	}
}

func requireEquivalent(t *testing.T, label string, c equivCase, d *truth.Dataset) {
	t.Helper()
	want, got, refErr, engErr := c.runs(d)
	if refErr != nil {
		t.Fatalf("%s: reference: %v", label, refErr)
	}
	if engErr != nil {
		t.Fatalf("%s: engine: %v", label, engErr)
	}
	requireRunsIdentical(t, label, got, want)
}

// TestEngineMatchesReferenceMotivating: every strategy/knob combination
// must reproduce the naive implementation exactly on the paper's Table 1.
func TestEngineMatchesReferenceMotivating(t *testing.T) {
	d := truth.MotivatingExample()
	for i, c := range equivConfigs() {
		requireEquivalent(t, fmt.Sprintf("cfg%d(%s)", i, c.e.Name()), c, d)
	}
}

// TestEngineMatchesReferenceSynthetic: the paper's §6.3.1 generative worlds
// produce large correlated fact groups — the regime the inverted index is
// built for.
func TestEngineMatchesReferenceSynthetic(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		w, err := synth.Generate(synth.Config{
			Facts: 1500, AccurateSources: 6, InaccurateSources: 3, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*IncEstimate{NewHeu(), NewPS(), NewScale()} {
			requireEquivalent(t, fmt.Sprintf("seed%d/%s", seed, e.Name()), equivCase{e: e}, w.Dataset)
		}
	}
}

// TestEngineMatchesReferenceRandom: randomized property check across the
// knob matrix. This is the per-round selection property from the issue in
// its strongest form: identical Evaluated sets at every time point.
func TestEngineMatchesReferenceRandom(t *testing.T) {
	configs := equivConfigs()
	prop := func(seed uint64, nsRaw, nfRaw uint8) bool {
		sources := 1 + int(nsRaw%9)
		facts := 1 + int(nfRaw%80)
		d := randomDataset(seed, sources, facts)
		for i, c := range configs {
			want, got, err1, err2 := c.runs(d)
			if (err1 == nil) != (err2 == nil) {
				t.Logf("seed=%d cfg%d: error mismatch %v vs %v", seed, i, err1, err2)
				return false
			}
			if err1 != nil {
				continue
			}
			requireRunsIdentical(t, fmt.Sprintf("seed=%d cfg%d(%s)", seed, i, c.e.Name()), got, want)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// withBudgets runs fn with the engine's cache budgets overridden, forcing
// the lazy ranking through its degraded paths (no neighbor lists, no pair
// rows, or a budget so small only some rows fit).
func withBudgets(t *testing.T, nbr, pair int, fn func()) {
	t.Helper()
	oldNbr, oldPair := defaultNbrBudget, defaultPairBudget
	defaultNbrBudget, defaultPairBudget = nbr, pair
	defer func() { defaultNbrBudget, defaultPairBudget = oldNbr, oldPair }()
	fn()
}

// TestLazyPQEquivalence: the lazy-greedy priority queue — stale bounds,
// cached pair terms, and all — must reproduce the reference bit-for-bit
// across the knob matrix, under every cache-budget degradation: full
// caching, pair cache disabled (every surfaced candidate re-scored from the
// neighbor lists), a pair budget too small for most rows, and no caching at
// all (every surfaced candidate re-scored through the merge fallback).
func TestLazyPQEquivalence(t *testing.T) {
	budgets := []struct {
		name      string
		nbr, pair int
	}{
		{"full-cache", 4 << 20, 4 << 20},
		{"no-pair-cache", 4 << 20, 0},
		{"tiny-pair-cache", 4 << 20, 24},
		{"no-cache", 0, 0},
	}
	for _, bb := range budgets {
		t.Run(bb.name, func(t *testing.T) {
			withBudgets(t, bb.nbr, bb.pair, func() {
				d := truth.MotivatingExample()
				for i, c := range equivConfigs() {
					requireEquivalent(t, fmt.Sprintf("cfg%d(%s)", i, c.e.Name()), c, d)
				}
				for _, seed := range []uint64{3, 11, 42} {
					wide := randomDataset(seed, 8, 120)
					for _, e := range []*IncEstimate{NewHeu(), {Strategy: SelectHybrid}, {FlipDeltaH: true}} {
						requireEquivalent(t, fmt.Sprintf("wide seed=%d %s", seed, e.Name()), equivCase{e: e}, wide)
					}
				}
			})
		})
	}
}

// TestLazyPQDeterminism: repeated runs through the lazy priority queue are
// identical — heap ties are broken by the deterministic ordinal, and the
// cache warm-up order cannot change any selection.
func TestLazyPQDeterminism(t *testing.T) {
	d := randomDataset(99, 7, 150)
	base, err := NewHeu().RunDetailedWith(context.Background(), d, driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		again, err := NewHeu().RunDetailedWith(context.Background(), d, driver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireRunsIdentical(t, fmt.Sprintf("repeat %d", i), again, base)
	}
	// A cold-cache run and a budget-degraded run must also agree with the
	// warm default: the cache is an accelerator, never an input.
	withBudgets(t, 0, 0, func() {
		cold, err := NewHeu().RunDetailedWith(context.Background(), d, driver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireRunsIdentical(t, "uncached", cold, base)
	})
}
