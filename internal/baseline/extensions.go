package baseline

import (
	"context"
	"math"

	"corroborate/internal/engine"
	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// The methods in this file are not part of the paper's evaluation tables;
// they come from its related-work section (§7) and round out the comparator
// suite: TruthFinder (Yin et al., KDD 2007/TKDE 2008) and the prior-free
// algorithms of Pasternack & Roth (COLING 2010): AvgLog, Invest and
// PooledInvest. All are adapted to the paper's boolean-fact setting by
// treating a T vote as a claim on the value "true" and an F vote as a claim
// on the value "false" of the same fact.

// TruthFinder implements Yin et al.'s algorithm: source trustworthiness maps
// to a score τ(s) = -ln(1 - t(s)); a fact value's raw confidence is the sum
// of its supporters' τ minus a dampened sum of its opponents' τ, squashed by
// a logistic so mutual exclusion between "true" and "false" is respected.
type TruthFinder struct{}

// Name implements engine.Method.
func (t *TruthFinder) Name() string { return "TruthFinder" }

// RunWith implements engine.Method. Every source starts at trust 0.9, the
// logistic's dampening γ is 0.3 and the weight ρ of opposing claims 0.5;
// the defaults are 100 iterations and a 1e-6 tolerance on the max trust
// change.
func (t *TruthFinder) RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*truth.Result, error) {
	cfg := opts.Resolve(ctx, engine.Defaults{MaxIter: 100, Tolerance: 1e-6, HasTolerance: true})
	init, gamma, rho := 0.9, 0.3, 0.5

	nS, nF := d.NumSources(), d.NumFacts()
	trust := score.Fill(make([]float64, nS), init)
	probs := score.Fill(make([]float64, nF), 0.5)

	// Cap trust away from 1 so τ stays finite.
	const capTrust = 1 - 1e-9
	tau := func(x float64) float64 {
		if x > capTrust {
			x = capTrust
		}
		if x <= 0 {
			x = 1e-9
		}
		return -math.Log(1 - x)
	}

	iter, err := engine.Iterate(cfg, func(int) (float64, bool, error) {
		for f := 0; f < nF; f++ {
			votes := d.VotesOnFact(f)
			if len(votes) == 0 {
				probs[f] = 0.5
				continue
			}
			var forTrue, forFalse float64
			for _, sv := range votes {
				if sv.Vote == truth.Affirm {
					forTrue += tau(trust[sv.Source])
				} else {
					forFalse += tau(trust[sv.Source])
				}
			}
			raw := (forTrue - rho*forFalse) - (forFalse - rho*forTrue)
			probs[f] = 1 / (1 + math.Exp(-gamma*raw))
		}
		next := make([]float64, nS)
		for s := 0; s < nS; s++ {
			list := d.VotesBySource(s)
			if len(list) == 0 {
				next[s] = init
				continue
			}
			var sum float64
			for _, fv := range list {
				sum += score.SourceCredit(fv.Vote, probs[fv.Fact])
			}
			next[s] = sum / float64(len(list))
		}
		delta := engine.MaxDelta(trust, next)
		trust = next
		return delta, false, nil
	})
	if err != nil {
		return nil, err
	}

	r := truth.NewResult(t.Name(), d)
	copy(r.FactProb, probs)
	r.Trust = trust
	r.Iterations = iter
	r.Finalize()
	return r, nil
}

// prStyle runs the generic Pasternack & Roth fixpoint shared by AvgLog,
// Invest and PooledInvest. Belief flows from sources to the claims they
// assert and back; variants differ in how trust is aggregated (aggTrust)
// and how claim belief is grown (growBelief). The schedule is a fixed
// number of rounds: the per-round delta is the max trust change, which the
// driver ignores unless the caller arms a tolerance explicitly.
func prStyle(name string, d *truth.Dataset, cfg engine.Config,
	aggTrust func(avgBelief float64, claims int) float64,
	growBelief func(b float64) float64) (*truth.Result, error) {

	nS, nF := d.NumSources(), d.NumFacts()
	trust := score.Fill(make([]float64, nS), 1)
	prev := make([]float64, nS)
	beliefTrue := make([]float64, nF)
	beliefFalse := make([]float64, nF)

	iter, err := engine.Iterate(cfg, func(int) (float64, bool, error) {
		copy(prev, trust)
		for f := range beliefTrue {
			beliefTrue[f], beliefFalse[f] = 0, 0
		}
		for s := 0; s < nS; s++ {
			list := d.VotesBySource(s)
			if len(list) == 0 {
				continue
			}
			share := trust[s] / float64(len(list))
			for _, fv := range list {
				if fv.Vote == truth.Affirm {
					beliefTrue[fv.Fact] += share
				} else {
					beliefFalse[fv.Fact] += share
				}
			}
		}
		maxBelief := 0.0
		for f := range beliefTrue {
			beliefTrue[f] = growBelief(beliefTrue[f])
			beliefFalse[f] = growBelief(beliefFalse[f])
			maxBelief = math.Max(maxBelief, math.Max(beliefTrue[f], beliefFalse[f]))
		}
		if maxBelief > 0 {
			for f := range beliefTrue {
				beliefTrue[f] /= maxBelief
				beliefFalse[f] /= maxBelief
			}
		}
		maxTrust := 0.0
		for s := 0; s < nS; s++ {
			list := d.VotesBySource(s)
			if len(list) == 0 {
				trust[s] = 0
				continue
			}
			var sum float64
			for _, fv := range list {
				if fv.Vote == truth.Affirm {
					sum += beliefTrue[fv.Fact]
				} else {
					sum += beliefFalse[fv.Fact]
				}
			}
			trust[s] = aggTrust(sum/float64(len(list)), len(list))
			maxTrust = math.Max(maxTrust, trust[s])
		}
		if maxTrust > 0 {
			for s := range trust {
				trust[s] /= maxTrust
			}
		}
		return engine.MaxDelta(prev, trust), false, nil
	})
	if err != nil {
		return nil, err
	}

	r := truth.NewResult(name, d)
	for f := 0; f < nF; f++ {
		if len(d.VotesOnFact(f)) == 0 {
			r.FactProb[f] = 0.5
			continue
		}
		tot := beliefTrue[f] + beliefFalse[f]
		if tot == 0 {
			r.FactProb[f] = 0.5
			continue
		}
		r.FactProb[f] = beliefTrue[f] / tot
	}
	r.Trust = trust
	r.Iterations = iter
	r.Finalize()
	return r, nil
}

// AvgLog weighs a source's average claim belief by the log of its claim
// count, rewarding prolific sources without letting volume dominate.
type AvgLog struct{}

// Name implements engine.Method.
func (AvgLog) Name() string { return "AvgLog" }

// RunWith implements engine.Method. The default is 20 iterations.
func (a AvgLog) RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*truth.Result, error) {
	cfg := opts.Resolve(ctx, engine.Defaults{MaxIter: 20})
	return prStyle(a.Name(), d, cfg,
		func(avg float64, claims int) float64 {
			if claims < 1 {
				// prStyle only calls this for sources with claims, but keep
				// the log argument provably positive: log(0+1) = 0 anyway.
				return 0
			}
			return avg * math.Log(float64(claims)+1)
		},
		func(b float64) float64 { return b })
}

// Invest has sources invest their trust uniformly across their claims and
// grows claim belief super-linearly (G(x) = x^g with g = 1.2),
// concentrating credit on claims backed by trusted sources.
type Invest struct{}

// Name implements engine.Method.
func (Invest) Name() string { return "Invest" }

// RunWith implements engine.Method. The default is 20 iterations.
func (iv Invest) RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*truth.Result, error) {
	g := 1.2
	cfg := opts.Resolve(ctx, engine.Defaults{MaxIter: 20})
	return prStyle(iv.Name(), d, cfg,
		func(avg float64, claims int) float64 { return avg },
		func(b float64) float64 { return math.Pow(b, g) })
}

// PooledInvest is Invest with linear pooling (g = 1) and trust weighted by
// claim count, the best-performing Pasternack & Roth variant on several
// published datasets.
type PooledInvest struct{}

// Name implements engine.Method.
func (PooledInvest) Name() string { return "PooledInvest" }

// RunWith implements engine.Method. The default is 20 iterations.
func (p PooledInvest) RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*truth.Result, error) {
	cfg := opts.Resolve(ctx, engine.Defaults{MaxIter: 20})
	return prStyle(p.Name(), d, cfg,
		func(avg float64, claims int) float64 {
			return avg * math.Sqrt(float64(claims))
		},
		func(b float64) float64 { return b })
}

var (
	_ engine.Method = (*TruthFinder)(nil)
	_ engine.Method = AvgLog{}
	_ engine.Method = Invest{}
	_ engine.Method = PooledInvest{}
)
