package depend

import (
	"fmt"
	"testing"

	"corroborate/internal/synth"
	"corroborate/internal/truth"
)

// Detection floors against the seeded synth scenario model: Score must
// recover the planted copier wiring from a generated world, not just the
// hand-built four-source fixture in depend_test.go. Ground truth comes
// from ScenarioWorld.CopierPairs; the oracle result stands in for a
// perfect corroborator so the floors measure the detector, not the
// truth-discovery method feeding it.

// colluderScenario generates a copier world with no churn (so the planted
// leaders persist for the whole stream) and returns it with its flattened
// dataset and dependence matrix under the oracle result.
func colluderScenario(t *testing.T, copiers []synth.CopierConfig, seed int64) (*synth.ScenarioWorld, *truth.Dataset, Matrix) {
	t.Helper()
	w, err := synth.GenerateScenario(synth.ScenarioConfig{
		Batches:       3,
		FactsPerBatch: 250,
		HonestSources: 6,
		Copiers:       copiers,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := w.Dataset()
	m, err := Score(d, oracleResult(d))
	if err != nil {
		t.Fatal(err)
	}
	return w, d, m
}

// pairKey canonicalizes an unordered source-name pair.
func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// familyPairs expands the planted (copier, leader) pairs into the full set
// of dependent pairs: copier–leader, plus copier–copier for copiers that
// share a leader (they replicate the same error stream, so pairwise
// dependence between them is real, not a false positive).
func familyPairs(pairs [][2]string) map[string]bool {
	family := make(map[string]bool)
	byLeader := make(map[string][]string)
	for _, p := range pairs {
		family[pairKey(p[0], p[1])] = true
		byLeader[p[1]] = append(byLeader[p[1]], p[0])
	}
	for _, cs := range byLeader {
		for i := 0; i < len(cs); i++ {
			for j := i + 1; j < len(cs); j++ {
				family[pairKey(cs[i], cs[j])] = true
			}
		}
	}
	return family
}

// detectedPairs thresholds the matrix at p > 0.5: with the default prior
// of 0.2, crossing 0.5 means the vote evidence itself argued for copying.
func detectedPairs(d *truth.Dataset, m Matrix) map[string]bool {
	out := make(map[string]bool)
	for i := 0; i < d.NumSources(); i++ {
		for j := i + 1; j < d.NumSources(); j++ {
			if m[i][j] > 0.5 {
				out[pairKey(d.SourceName(i), d.SourceName(j))] = true
			}
		}
	}
	return out
}

func precisionRecall(detected, family map[string]bool, copierLeader [][2]string) (prec, rec float64) {
	if len(detected) > 0 {
		hit := 0
		for k := range detected {
			if family[k] {
				hit++
			}
		}
		prec = float64(hit) / float64(len(detected))
	}
	if len(copierLeader) > 0 {
		hit := 0
		for _, p := range copierLeader {
			if detected[pairKey(p[0], p[1])] {
				hit++
			}
		}
		rec = float64(hit) / float64(len(copierLeader))
	}
	return prec, rec
}

// TestColluderDetectionFloors: over several seeds, the detector must
// recover every planted copier–leader edge (recall 1.0) and flag nothing
// outside the colluding families (precision 1.0) on a two-family world.
func TestColluderDetectionFloors(t *testing.T) {
	copiers := []synth.CopierConfig{
		{Leader: 0, Count: 1, Noise: 0.1},
		{Leader: 2, Count: 1, Noise: 0.1},
	}
	for _, seed := range []int64{7, 19, 64} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w, d, m := colluderScenario(t, copiers, seed)
			pairs := w.CopierPairs(0)
			if len(pairs) != 2 {
				t.Fatalf("scenario planted %d copier pairs, want 2", len(pairs))
			}
			detected := detectedPairs(d, m)
			prec, rec := precisionRecall(detected, familyPairs(pairs), pairs)
			if rec < 1 {
				t.Errorf("recall %.2f < 1.0: a planted copier-leader pair went undetected (detected %v)", rec, detected)
			}
			if prec < 1 {
				t.Errorf("precision %.2f < 1.0: an independent pair was flagged (detected %v)", prec, detected)
			}
			// The two families are unrelated: the cross-copier pair must
			// stay below the threshold even though both sources are copiers.
			c0, c2 := d.SourceIndex("copier0-00"), d.SourceIndex("copier1-00")
			if c0 < 0 || c2 < 0 {
				t.Fatal("expected copiers copier0-00 and copier1-00 in the dataset")
			}
			if m[c0][c2] > 0.5 {
				t.Errorf("copiers of different leaders scored %v, want <= 0.5", m[c0][c2])
			}
		})
	}
}

// TestColluderLeaderAmbiguity: two copiers of the same leader. Pairwise
// dependence cannot orient the edges — the copier–copier pair shares the
// leader's full error stream and is as dependent as either copier–leader
// pair — so the detector must flag the whole triangle, and the family-level
// precision/recall floors must still hold.
func TestColluderLeaderAmbiguity(t *testing.T) {
	w, d, m := colluderScenario(t, []synth.CopierConfig{{Leader: 1, Count: 2, Noise: 0.1}}, 11)
	pairs := w.CopierPairs(0)
	if len(pairs) != 2 {
		t.Fatalf("scenario planted %d copier pairs, want 2", len(pairs))
	}
	leader := pairs[0][1]
	if pairs[1][1] != leader {
		t.Fatalf("copiers have different leaders %q, %q; want a shared one", pairs[0][1], pairs[1][1])
	}
	family := familyPairs(pairs)
	if len(family) != 3 {
		t.Fatalf("family of a shared leader must be the full triangle, got %d pairs", len(family))
	}
	detected := detectedPairs(d, m)
	prec, rec := precisionRecall(detected, family, pairs)
	if rec < 1 {
		t.Errorf("recall %.2f < 1.0 on the shared-leader scenario (detected %v)", rec, detected)
	}
	if prec < 1 {
		t.Errorf("precision %.2f < 1.0 on the shared-leader scenario (detected %v)", prec, detected)
	}
	// The ambiguity itself: the copier-copier edge is detected, and at a
	// posterior comparable to the true copier-leader edges.
	ca, cb := pairs[0][0], pairs[1][0]
	if !detected[pairKey(ca, cb)] {
		t.Errorf("copier-copier pair %s/%s undetected; shared-leader ambiguity should make it score high", ca, cb)
	}
	li := d.SourceIndex(leader)
	ai, bi := d.SourceIndex(ca), d.SourceIndex(cb)
	if m[ai][bi] < 0.5*m[ai][li] {
		t.Errorf("copier-copier posterior %v implausibly far below copier-leader %v", m[ai][bi], m[ai][li])
	}
}

// TestColluderWeightsDiscountFamilies: the downstream weight vector must
// discount every member of a planted family below the honest bystanders.
func TestColluderWeightsDiscountFamilies(t *testing.T) {
	w, d, m := colluderScenario(t, []synth.CopierConfig{{Leader: 1, Count: 2, Noise: 0.1}}, 11)
	weights := m.Weights()
	inFamily := make(map[string]bool)
	for _, p := range w.CopierPairs(0) {
		inFamily[p[0]] = true
		inFamily[p[1]] = true
	}
	var maxFam, minFree float64 = 0, 1
	for i := 0; i < d.NumSources(); i++ {
		wgt := weights[i]
		if inFamily[d.SourceName(i)] {
			if wgt > maxFam {
				maxFam = wgt
			}
		} else if wgt < minFree {
			minFree = wgt
		}
	}
	if maxFam >= minFree {
		t.Errorf("family member weight %v not below every independent source's weight %v", maxFam, minFree)
	}
}
