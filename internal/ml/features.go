// Package ml implements the machine-learning comparators of Wu & Marian
// (EDBT 2014, §6.1.1): a support vector machine trained with Platt's SMO
// (the Weka "SMO" baseline) and a logistic-regression classifier (the Weka
// "Logistic" baseline), both using the votes as features and evaluated with
// 10-fold cross-validation over the golden set.
//
// The vote encoding gives one feature per source: +1 for an affirmative
// statement, -1 for an F vote, 0 when the source is silent. As the paper
// observes, this lets the classifiers exploit missing votes — knowledge the
// corroboration methods deliberately do not use — and makes the rare F
// votes the most discriminative features.
package ml

import (
	"context"
	"fmt"
	"sort"

	"corroborate/internal/engine"
	"corroborate/internal/truth"
)

// Features encodes fact f's votes as one value per source:
// Affirm -> +1, Deny -> -1, Absent -> 0.
func Features(d *truth.Dataset, f int) []float64 {
	x := make([]float64, d.NumSources())
	for _, sv := range d.VotesOnFact(f) {
		switch sv.Vote {
		case truth.Affirm:
			x[sv.Source] = 1
		case truth.Deny:
			x[sv.Source] = -1
		}
	}
	return x
}

// Classifier is a binary classifier over vote features. Labels are +1
// (fact true) and -1 (fact false).
type Classifier interface {
	// Fit trains on the given examples; implementations must reset any
	// previous state.
	Fit(x [][]float64, y []float64) error
	// PredictProb returns the estimated probability that the example's
	// fact is true.
	PredictProb(x []float64) float64
}

// CrossValidateWith runs stratified 10-fold cross-validation over the
// dataset's golden facts (one fold per fact when there are fewer): each
// golden fact is predicted by a classifier trained on the other folds.
// Facts outside the golden set keep probability 0.5, and the returned
// result carries the method name. Each fold is one driver round
// (cancellable at fold boundaries, reported to Observers), Options.Seed
// overrides the fold-shuffle and classifier seed, and Options.MaxIter caps
// how many folds run (capped-out folds keep their test facts at
// probability 0.5). The classifier factory receives the resolved seed so
// seeded learners stay on the run's RNG stream.
func CrossValidateWith(name string, d *truth.Dataset, ctx context.Context, opts engine.Options, seed int64, newClassifier func(seed int64) Classifier) (*truth.Result, error) {
	var pos, negs []int
	for _, f := range d.Golden() {
		switch d.Label(f) {
		case truth.True:
			pos = append(pos, f)
		case truth.False:
			negs = append(negs, f)
		}
	}
	if len(pos) == 0 || len(negs) == 0 {
		return nil, fmt.Errorf("ml: cross-validation needs both classes in the golden set (%d true, %d false)", len(pos), len(negs))
	}
	total := len(pos) + len(negs)
	folds := 10
	if folds > total {
		folds = total
	}

	cfg := opts.Resolve(ctx, engine.Defaults{MaxIter: folds, Seed: seed})
	// The schedule is exactly one round per fold: clamp any larger or
	// unbounded cap back to the fold count.
	if !cfg.Capped || cfg.MaxIter > folds {
		cfg.MaxIter = folds
		cfg.Capped = true
	}

	// The +1 keeps the shuffle stream distinct from the classifiers', which
	// draw from the unshifted seed (locked by the golden suite).
	rng := engine.Rand(cfg.Seed + 1)
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(negs), func(i, j int) { negs[i], negs[j] = negs[j], negs[i] })

	// Stratified fold assignment: deal each class round-robin.
	foldOf := make(map[int]int, total)
	for i, f := range pos {
		foldOf[f] = i % folds
	}
	for i, f := range negs {
		foldOf[f] = i % folds
	}

	all := append(append([]int(nil), pos...), negs...)
	sort.Ints(all)

	r := truth.NewResult(name, d)
	for f := range r.FactProb {
		r.FactProb[f] = 0.5
	}
	iters, err := engine.Iterate(cfg, func(k int) (float64, bool, error) {
		var trainX [][]float64
		var trainY []float64
		var test []int
		for _, f := range all {
			if foldOf[f] == k {
				test = append(test, f)
				continue
			}
			trainX = append(trainX, Features(d, f))
			if d.Label(f) == truth.True {
				trainY = append(trainY, 1)
			} else {
				trainY = append(trainY, -1)
			}
		}
		if len(test) == 0 {
			return engine.NoDelta, false, nil
		}
		clf := newClassifier(cfg.Seed)
		if err := clf.Fit(trainX, trainY); err != nil {
			return 0, false, fmt.Errorf("ml: training fold %d: %w", k, err)
		}
		for _, f := range test {
			r.FactProb[f] = clamp01(clf.PredictProb(Features(d, f)))
		}
		return engine.NoDelta, false, nil
	})
	if err != nil {
		return nil, err
	}
	r.Iterations = iters
	r.Finalize()
	return r, nil
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
