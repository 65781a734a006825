// Package baseline implements the non-incremental comparison methods of
// Wu & Marian (EDBT 2014, §6.1.1): the Voting and Counting heuristics and
// the TwoEstimate / ThreeEstimate fixpoint corroborators of Galland et al.
// (WSDM 2010), plus several further truth-discovery algorithms from the
// related-work section (TruthFinder, AvgLog, Invest, PooledInvest) that are
// useful as additional comparators.
//
// Every method implements engine.Method.
package baseline

import (
	"context"

	"corroborate/internal/engine"
	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// oneShot runs a non-iterative method body as a single driver round, so
// the one-shot baselines share the runtime's cancellation and Observer
// contract with the fixpoint methods.
func oneShot(ctx context.Context, opts engine.Options, body func() (*truth.Result, error)) (*truth.Result, error) {
	cfg := opts.Resolve(ctx, engine.Defaults{MaxIter: 1})
	cfg.MaxIter, cfg.Capped = 1, true
	var r *truth.Result
	if _, err := engine.Iterate(cfg, func(int) (float64, bool, error) {
		var err error
		r, err = body()
		return engine.NoDelta, true, err
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// Voting considers a fact true when it has at least as many T votes as F
// votes. In the paper's affirmative-statement scenario it degenerates to
// "everything with a vote is true", giving perfect recall and poor
// precision.
type Voting struct{}

// Name implements engine.Method.
func (Voting) Name() string { return "Voting" }

// RunWith implements engine.Method as a single driver round: the options'
// iteration knobs have nothing to cap, but cancellation and Observers
// behave like every other method's.
func (Voting) RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*truth.Result, error) {
	return oneShot(ctx, opts, func() (*truth.Result, error) {
		r := truth.NewResult("Voting", d)
		for f := 0; f < d.NumFacts(); f++ {
			votes := d.VotesOnFact(f)
			if len(votes) == 0 {
				r.FactProb[f] = 0.5
				continue
			}
			t := 0
			for _, sv := range votes {
				if sv.Vote == truth.Affirm {
					t++
				}
			}
			r.FactProb[f] = float64(t) / float64(len(votes))
		}
		r.Finalize()
		return r, nil
	})
}

// Counting considers a fact true only when more than half of ALL sources
// affirm it — a much stricter quorum than Voting, trading recall for
// precision (Table 4: precision 0.94, recall 0.65).
type Counting struct{}

// Name implements engine.Method.
func (Counting) Name() string { return "Counting" }

// RunWith implements engine.Method as a single driver round, like Voting's.
func (Counting) RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*truth.Result, error) {
	return oneShot(ctx, opts, func() (*truth.Result, error) {
		r := truth.NewResult("Counting", d)
		n := d.NumSources()
		for f := 0; f < d.NumFacts(); f++ {
			t := 0
			for _, sv := range d.VotesOnFact(f) {
				if sv.Vote == truth.Affirm {
					t++
				}
			}
			if n == 0 {
				r.FactProb[f] = 0
				continue
			}
			frac := float64(t) / float64(n)
			r.FactProb[f] = frac
			// "more than half the sources" is a strict majority: exactly
			// half does not qualify.
			if score.ApproxEqual(frac, 0.5) {
				r.FactProb[f] = 0.499999
			}
		}
		r.Finalize()
		return r, nil
	})
}

var (
	_ engine.Method = Voting{}
	_ engine.Method = Counting{}
)

// trustFromProbs recomputes each source's trust as its mean credit over the
// facts it voted on, given per-fact probabilities. Sources with no votes
// keep fallback.
func trustFromProbs(d *truth.Dataset, probs []float64, fallback float64) []float64 {
	trust := make([]float64, d.NumSources())
	for s := range trust {
		list := d.VotesBySource(s)
		if len(list) == 0 {
			trust[s] = fallback
			continue
		}
		var sum float64
		for _, fv := range list {
			sum += score.SourceCredit(fv.Vote, probs[fv.Fact])
		}
		trust[s] = sum / float64(len(list))
	}
	return trust
}
