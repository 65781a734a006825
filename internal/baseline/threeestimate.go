package baseline

import (
	"context"

	"corroborate/internal/engine"
	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// ThreeEstimate extends TwoEstimate with Galland et al.'s third estimate:
// a per-fact difficulty that measures how much disagreement a fact attracts,
// so that a source is penalized less for erring on a hard fact than on an
// easy one. Per vote, the probability that source s is correct about fact f
// is modeled as 1 - ε(s)·δ(f), where ε is the source's error rate and δ the
// fact's difficulty; both are re-estimated from the normalized fact
// probabilities each iteration.
//
// As the paper's footnote 3 observes, when most facts carry T votes only the
// difficulty estimate collapses (unanimous facts have no disagreement) and
// ThreeEstimate behaves like TwoEstimate; the test suite asserts exactly
// that degeneration.
type ThreeEstimate struct{}

// Name implements engine.Method.
func (e *ThreeEstimate) Name() string { return "ThreeEstimate" }

// RunWith implements engine.Method. The defaults are TwoEstimate's (an
// initial trust of 0.9, seeding 1-ε(s), 100 iterations and a 1e-9
// tolerance) plus an initial difficulty δ(f) of 0.5.
func (e *ThreeEstimate) RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*truth.Result, error) {
	cfg := opts.Resolve(ctx, engine.Defaults{MaxIter: 100, Tolerance: 1e-9, HasTolerance: true})
	initTrust, initDiff := 0.9, 0.5

	nS, nF := d.NumSources(), d.NumFacts()
	errRate := score.Fill(make([]float64, nS), 1-initTrust)
	diff := score.Fill(make([]float64, nF), initDiff)
	probs := make([]float64, nF)
	normed := make([]float64, nF)

	iter, err := engine.Iterate(cfg, func(int) (float64, bool, error) {
		// Corrob with per-vote correctness 1 - ε(s)·δ(f).
		for f := 0; f < nF; f++ {
			votes := d.VotesOnFact(f)
			if len(votes) == 0 {
				probs[f] = 0.5
				continue
			}
			var sum float64
			for _, sv := range votes {
				correct := 1 - errRate[sv.Source]*diff[f]
				if sv.Vote == truth.Affirm {
					sum += correct
				} else {
					sum += 1 - correct
				}
			}
			probs[f] = sum / float64(len(votes))
		}
		for f, p := range probs {
			normed[f] = score.Normalize(p)
		}
		// Re-estimate source error rates and fact difficulties from the
		// per-vote wrongness under the normalized outcome.
		nextErr := make([]float64, nS)
		for s := 0; s < nS; s++ {
			list := d.VotesBySource(s)
			if len(list) == 0 {
				nextErr[s] = 1 - initTrust
				continue
			}
			var wrong float64
			for _, fv := range list {
				wrong += 1 - score.SourceCredit(fv.Vote, normed[fv.Fact])
			}
			nextErr[s] = clamp01(wrong / float64(len(list)))
		}
		delta := engine.MaxDelta(errRate, nextErr)
		errRate = nextErr
		for f := 0; f < nF; f++ {
			votes := d.VotesOnFact(f)
			if len(votes) == 0 {
				continue
			}
			var wrong float64
			for _, sv := range votes {
				wrong += 1 - score.SourceCredit(sv.Vote, normed[f])
			}
			diff[f] = clamp01(wrong / float64(len(votes)))
		}
		return delta, false, nil
	})
	if err != nil {
		return nil, err
	}

	r := truth.NewResult(e.Name(), d)
	trust := make([]float64, nS)
	for s := range trust {
		trust[s] = 1 - errRate[s]
	}
	for f := 0; f < nF; f++ {
		votes := d.VotesOnFact(f)
		if len(votes) == 0 {
			r.FactProb[f] = 0.5
			continue
		}
		var sum float64
		for _, sv := range votes {
			correct := 1 - errRate[sv.Source]*diff[f]
			if sv.Vote == truth.Affirm {
				sum += correct
			} else {
				sum += 1 - correct
			}
		}
		r.FactProb[f] = clamp01(sum / float64(len(votes)))
	}
	r.Trust = trust
	r.Iterations = iter
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

var _ engine.Method = (*ThreeEstimate)(nil)
