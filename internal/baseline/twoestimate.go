package baseline

import (
	"context"

	"corroborate/internal/engine"
	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// TwoEstimate is the iterative corroborator of Galland et al. (WSDM 2010) as
// described and used in Wu & Marian §2.1: starting from a default trust for
// every source, it alternates
//
//  1. Corrob: each fact's probability becomes the mean credit of its votes
//     under the current trust (Eq. 5/6),
//  2. normalization: probabilities snap to 1 or 0 at the 0.5 threshold
//     (the convergence fix the paper criticizes), and
//  3. Update: each source's trust becomes its mean credit over the facts it
//     voted on, using the normalized probabilities (Eq. 7),
//
// until the trust vector reaches a fixpoint. On the motivating example this
// reproduces the published trust vector {1, 1, 0.8, 0.9, 1} and the
// all-true-but-r12 outcome.
type TwoEstimate struct{}

// Name implements engine.Method.
func (e *TwoEstimate) Name() string { return "TwoEstimate" }

// RunWith implements engine.Method. The paper defaults are an initial
// trust of 0.9, 100 iterations and a 1e-9 tolerance on the max trust
// change.
func (e *TwoEstimate) RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*truth.Result, error) {
	cfg := opts.Resolve(ctx, engine.Defaults{MaxIter: 100, Tolerance: 1e-9, HasTolerance: true})
	init := 0.9
	trust := score.Fill(make([]float64, d.NumSources()), init)
	probs := make([]float64, d.NumFacts())
	normed := make([]float64, d.NumFacts())
	r := truth.NewResult(e.Name(), d)

	iter, err := engine.Iterate(cfg, func(int) (float64, bool, error) {
		for f := range probs {
			probs[f] = score.Corrob(d.VotesOnFact(f), trust)
		}
		for f, p := range probs {
			normed[f] = score.Normalize(p)
		}
		next := trustFromProbs(d, normed, init)
		delta := engine.MaxDelta(trust, next)
		trust = next
		return delta, false, nil
	})
	if err != nil {
		return nil, err
	}
	// Final probabilities under the converged trust.
	for f := range probs {
		r.FactProb[f] = score.Corrob(d.VotesOnFact(f), trust)
		if len(d.VotesOnFact(f)) == 0 {
			r.FactProb[f] = 0.5
		}
	}
	r.Trust = trust
	r.Iterations = iter
	r.Finalize()
	return r, nil
}

var _ engine.Method = (*TwoEstimate)(nil)
