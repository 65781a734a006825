// Package depend implements source-dependence detection in the spirit of
// Dong, Berti-Équille & Srivastava (PVLDB 2009), the related-work direction
// the paper cites in §7: sources that copy from one another share not only
// correct facts but, tellingly, each other's *errors*. The package scores
// pairwise dependence from a corroboration result (shared false
// affirmations are strong copying evidence; shared true ones are weak,
// since independent good sources also agree on the truth) and provides a
// dependence-aware voting method that discounts votes from source cliques.
//
// This is an extension beyond the reproduced paper's evaluation; it rounds
// out the corroboration suite with the orthogonal signal the paper's own
// related-work section highlights.
package depend

import (
	"context"
	"fmt"
	"math"

	"corroborate/internal/engine"
	"corroborate/internal/invariant"
	"corroborate/internal/truth"
)

// Matrix is a symmetric pairwise dependence matrix; Matrix[i][j] is the
// posterior probability that sources i and j are dependent.
type Matrix [][]float64

// Score computes the pairwise dependence posteriors given a corroboration
// result. For each pair the evidence is accumulated per jointly-voted fact:
//
//   - both AFFIRM a fact the result considers (probably) false: copying
//     evidence, weighted by 1 - σ(f) — two independent sources each err on
//     the same fact with probability ε², while a copier inherits the error
//     with probability ≈ c. Only affirmations carry copying evidence: in
//     the affirmative-statement regime it is listings that propagate
//     between directories, while denial marks come from audits;
//   - both affirm a fact deemed true, or both deny one deemed false:
//     neutral — the truth is a common cause that screens off dependence
//     (Dong et al.'s key observation);
//   - they disagree (one affirms, one denies): independence evidence (a
//     copier only disagrees with its original on the share it did not
//     copy).
//
// Weighting the copying evidence by the result's probability rather than
// its thresholded prediction keeps the detector stable when the bootstrap
// verdicts are still uncertain (ties).
//
// The model's rates are Dong et al.'s flavor of priors: an independent
// source is wrong about a fact with probability ε = 0.2, a copier copies
// any given fact with probability c = 0.8, and a pair of sources is
// dependent a priori with probability α = 0.2.
func Score(d *truth.Dataset, r *truth.Result) (Matrix, error) {
	if len(r.Predictions) != d.NumFacts() {
		return nil, fmt.Errorf("depend: result shaped for %d facts, dataset has %d", len(r.Predictions), d.NumFacts())
	}
	n := d.NumSources()
	eps, c, prior := 0.2, 0.8, 0.2
	// All three rates lie in the open unit interval, so every log/division
	// argument below is strictly positive.
	invariant.OpenUnit("depend error rate", eps)
	invariant.OpenUnit("depend copy rate", c)
	invariant.OpenUnit("depend prior", prior)
	priorOdds := math.Log(prior / (1 - prior))

	// Per-fact log-likelihood ratios P(obs|dep)/P(obs|indep). Shared
	// errors are the copying signature (independent sources each err on
	// the same fact with probability ε², a copier inherits the error with
	// probability c); shared agreement on the truth is neutral — the truth
	// itself is a common cause that screens off dependence (Dong et al.'s
	// key observation); and disagreement is strong independence evidence
	// (a copier only disagrees with its original on the 1-c it did not
	// copy).
	sharedFalse := math.Log((c + (1-c)*eps*eps) / (eps * eps))
	disagree := math.Log(1 - c)

	logOdds := make([][]float64, n)
	for i := range logOdds {
		logOdds[i] = make([]float64, n)
	}
	for f := 0; f < d.NumFacts(); f++ {
		votes := d.VotesOnFact(f)
		pFalse := 1 - r.FactProb[f]
		for i := 0; i < len(votes); i++ {
			for j := i + 1; j < len(votes); j++ {
				a, b := votes[i], votes[j]
				var llr float64
				switch {
				case a.Vote == truth.Affirm && b.Vote == truth.Affirm:
					llr = sharedFalse * pFalse
				case a.Vote != b.Vote:
					llr = disagree
				}
				logOdds[a.Source][b.Source] += llr
				logOdds[b.Source][a.Source] += llr
			}
		}
	}
	m := make(Matrix, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i == j {
				m[i][j] = 1
				continue
			}
			m[i][j] = sigmoid(priorOdds + logOdds[i][j])
		}
	}
	return m, nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Weights converts a dependence matrix into per-source vote weights: a
// source embedded in a clique of likely copies shares one vote with the
// clique instead of multiplying it. weight(s) = 1 / (1 + Σ_{t≠s} M[s][t]).
func (m Matrix) Weights() []float64 {
	w := make([]float64, len(m))
	for s := range m {
		var dep float64
		for t, p := range m[s] {
			if t != s {
				dep += p
			}
		}
		if dep < 0 {
			// Posteriors are probabilities, so dep ≥ 0 always holds; the
			// clamp keeps the divisor 1+dep provably ≥ 1.
			dep = 0
		}
		w[s] = 1 / (1 + dep)
	}
	return w
}

// Voting is a dependence-aware corroboration method: it bootstraps with an
// unweighted vote, scores pairwise dependence from the bootstrap verdicts,
// recounts with clique-discounted vote weights, and repeats. Three rounds
// are needed in general: the unweighted bootstrap can deem a clique's
// shared errors true (ties resolve true), which makes honest dissenters
// look like co-erring copiers for one round until the verdicts flip.
type Voting struct{}

// Name implements engine.Method.
func (Voting) Name() string { return "DependVoting" }

// RunWith implements engine.Method: Options.MaxIter overrides the default
// of 3 rounds (dependence is re-scored between rounds, never after the
// last).
func (v Voting) RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*truth.Result, error) {
	rounds := 3
	cfg := opts.Resolve(ctx, engine.Defaults{MaxIter: rounds})
	if cfg.Capped {
		rounds = cfg.MaxIter
	} else {
		// A fixed-round schedule has no unbounded reading: keep the default.
		cfg.MaxIter = rounds
		cfg.Capped = true
	}
	weights := make([]float64, d.NumSources())
	for s := range weights {
		weights[s] = 1
	}
	r := truth.NewResult(v.Name(), d)
	var m Matrix
	iter, err := engine.Iterate(cfg, func(round int) (float64, bool, error) {
		for f := 0; f < d.NumFacts(); f++ {
			votes := d.VotesOnFact(f)
			if len(votes) == 0 {
				r.FactProb[f] = 0.5
				continue
			}
			var yes, total float64
			for _, sv := range votes {
				w := weights[sv.Source]
				total += w
				if sv.Vote == truth.Affirm {
					yes += w
				}
			}
			if total == 0 {
				r.FactProb[f] = 0.5
				continue
			}
			r.FactProb[f] = yes / total
		}
		r.Finalize()
		if round == rounds-1 {
			return engine.NoDelta, true, nil
		}
		var err error
		m, err = Score(d, r)
		if err != nil {
			return 0, false, err
		}
		weights = m.Weights()
		return engine.NoDelta, false, nil
	})
	if err != nil {
		return nil, err
	}
	// Expose the final weights as a trust-like signal (a heavily copied
	// source is not necessarily wrong, but its vote counts for less).
	r.Trust = make([]float64, d.NumSources())
	for s := range r.Trust {
		r.Trust[s] = clamp01(weights[s])
	}
	r.Iterations = iter
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

var _ engine.Method = Voting{}
