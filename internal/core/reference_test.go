package core

import (
	"context"
	"fmt"

	"corroborate/internal/entropy"
	"corroborate/internal/invariant"
	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// This file keeps the pre-engine IncEstimate as the semantic reference:
// a naive, uncached implementation of Algorithms 1 and 2 that recomputes
// every trust vector, group probability and ∆H sum from scratch. The
// equivalence suite (equiv_test.go) asserts that the production engine
// (incestimate.go, index.go, deltah.go, lazypq.go) reproduces it byte for
// byte on every strategy and knob.

// runRef runs the reference under e's configuration, refusing what
// RunDetailedWith refuses. It takes no run options: the reference keeps
// its pre-runtime loop, whose only override is the round cap (0: none),
// the counterpart of the engine's Options.MaxIter.
func runRef(ctx context.Context, e *IncEstimate, d *truth.Dataset, rounds int) (*Run, error) {
	init, err := e.checkConfig()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return e.runReference(ctx, d, init, rounds)
}

// cancelledAt renders a round-boundary cancellation, preserving ctx.Err()
// for errors.Is.
func cancelledAt(ctx context.Context, round, remaining int) error {
	return fmt.Errorf("core: corroboration cancelled at round %d with %d facts remaining: %w",
		round, remaining, ctx.Err())
}

// runReference is the pre-engine implementation, retained verbatim as the
// semantic reference: the equivalence suite asserts the engine produces
// byte-identical Result and Trajectory output on every strategy and knob.
func (e *IncEstimate) runReference(ctx context.Context, d *truth.Dataset, init float64, rounds int) (*Run, error) {
	groups := buildGroups(d)
	state := newTrustState(d.NumSources(), init)
	result := truth.NewResult(e.Name(), d)
	run := &Run{Result: result}
	scratch := make([]float64, d.NumSources())

	remaining := d.NumFacts()
	round := 0
	for remaining > 0 {
		if ctx.Err() != nil {
			return nil, cancelledAt(ctx, round, remaining)
		}
		if rounds > 0 && round >= rounds {
			// Safety valve: corroborate everything left in one sweep.
			e.evaluateAll(d, groups, state, result, run)
			break
		}
		var evaluated []int
		switch e.Strategy {
		case SelectPS:
			evaluated = e.stepPS(groups, state, result)
		default:
			evaluated = e.stepBalanced(groups, state, result, scratch)
		}
		if len(evaluated) == 0 {
			// All groups empty but counter out of sync would be a bug;
			// guard against livelock.
			return nil, fmt.Errorf("core: round %d selected no facts with %d remaining", round, remaining)
		}
		remaining -= len(evaluated)
		groups = compact(groups)
		run.Trajectory = append(run.Trajectory, TimePoint{
			Trust:     state.vector(),
			Evaluated: evaluated,
		})
		round++
	}

	result.Trust = state.vector()
	invariant.TrustNormalized("IncEstimate reference trust", result.Trust)
	result.Iterations = len(run.Trajectory)
	result.Finalize()
	return run, nil
}

// evaluate corroborates n facts taken from group g under the current trust,
// stores their probabilities, absorbs the normalized outcome into the trust
// state, and returns the evaluated fact indices.
func evaluate(g *group, n int, state *trustState, result *truth.Result, soft bool) []int {
	p := g.prob(state.vector())
	invariant.Prob01("evaluated group probability", p)
	facts := g.take(n)
	for _, f := range facts {
		result.FactProb[f] = p
	}
	state.absorb(g.votes, outcome(p, soft), len(facts))
	return facts
}

// evaluateBatch corroborates every fact of every group in the batch under
// the single trust vector σi(S) of the current time point — probabilities
// are computed for all groups before any outcome is absorbed, matching the
// paper's semantics that all facts in Fi are evaluated with σi(S).
func evaluateBatch(side []*group, trust []float64, state *trustState, result *truth.Result, soft bool) []int {
	probs := make([]float64, len(side))
	for i, g := range side {
		probs[i] = g.prob(trust)
	}
	var all []int
	for i, g := range side {
		facts := g.take(g.size())
		for _, f := range facts {
			result.FactProb[f] = probs[i]
		}
		state.absorb(g.votes, outcome(probs[i], soft), len(facts))
		all = append(all, facts...)
	}
	return all
}

// stepBalanced is one time point of Algorithm 2 (and of the SelectScale
// ablation, which differs only in how each side is ranked).
func (e *IncEstimate) stepBalanced(groups []*group, state *trustState, result *truth.Result, scratch []float64) []int {
	trust := state.vector()
	var pos, neg []*group
	deferred := 0
	for _, g := range groups {
		if g.size() == 0 {
			continue
		}
		// Algorithm 2 line 3 partitions strictly: σ(FG) > 0.5 is the
		// positive part, everything else (including probability exactly
		// 0.5) the negative part. Note the asymmetry with the decision
		// rule of Eq. 2, which resolves 0.5 to true: a 0.5 group competes
		// on the negative side but, once selected, corroborates true.
		// This is what lets the motivating example's r6 (probability 0.5
		// under the initial trust) be deferred instead of eagerly
		// confirmed, and later uncovered as false.
		p := g.prob(trust)
		switch {
		case p > truth.Threshold:
			pos = append(pos, g)
		case e.Strategy == SelectScale && !g.conflicted() && g.backedByPositive(trust):
			// Scale profile: an affirmative-only fact backed by at least
			// one positive source is projected valid regardless of its
			// averaged probability — the paper's own round-3 argument
			// ("each restaurant is backed by at least one of the good
			// sources"). Only facts backed exclusively by negative
			// sources are candidates for rejection.
			pos = append(pos, g)
		case e.DeferBand > 0 && p > truth.Threshold-e.DeferBand && !g.conflicted():
			deferred++
		default:
			neg = append(neg, g)
		}
	}
	// Special case (§5.1): when every remaining group is projected to the
	// same side, evaluate all of them at once — this is the paper's final
	// round in the Figure 1 walk-through. Deferred-band groups only join
	// the sweep once no decidable group is left on either side.
	if len(pos) == 0 && len(neg) == 0 {
		var all []*group
		for _, g := range groups {
			if g.size() > 0 {
				all = append(all, g)
			}
		}
		return evaluateBatch(all, trust, state, result, e.SoftAbsorb)
	}
	if len(pos) == 0 || len(neg) == 0 {
		side := pos
		if len(pos) == 0 {
			side = neg
		}
		// Evaluate one side-group per time point while deferred groups
		// remain (their probabilities move as trust evolves); without any
		// deferred groups the whole side can be swept at once.
		if deferred == 0 {
			return evaluateBatch(side, trust, state, result, e.SoftAbsorb)
		}
		var g *group
		switch {
		case e.Strategy == SelectScale && len(pos) > 0:
			g = extremeProb(side, trust, true)
		case e.Strategy == SelectScale:
			g = extremeProb(side, trust, false)
		default:
			g = argmaxDeltaH(side, groups, state, trust, scratch, e.sign())
		}
		return evaluate(g, g.size(), state, result, e.SoftAbsorb)
	}
	var fgNeg, fgPos *group
	if e.Strategy == SelectScale {
		// Confident negative first; the LARGEST positive group second, so
		// every source's affirmative evidence keeps flowing at its
		// natural rate while conflict-exposed sources dip on the negative
		// stream. (Ranking positives by backing breadth instead was
		// evaluated and rejected: it protects a lone source's bulk
		// catalogue from premature confirmation, but it front-loads the
		// widest co-listed groups and freezes every source's trust near
		// its prior, flattening the synthetic sweeps — see EXPERIMENTS.md.)
		fgNeg = extremeProb(neg, trust, false)
		fgPos = largest(pos)
	} else if e.Strategy == SelectHybrid {
		fgNeg = extremeProb(neg, trust, false)
		afterNeg := state.clone()
		afterNeg.absorb(fgNeg.votes, score.Normalize(fgNeg.prob(trust)), fgNeg.size())
		afterNegTrust := afterNeg.vector()
		rest := make([]*group, 0, len(groups)-1)
		for _, g := range groups {
			if g != fgNeg {
				rest = append(rest, g)
			}
		}
		fgPos = argmaxDeltaHWithOutcome(pos, rest, afterNeg, afterNegTrust, trust, scratch, e.sign())
	} else {
		// Rank the negative side first, against the current state:
		// uncovering a projected-false group is what moves trust scores
		// away from their optimistic defaults. Outcomes used in the
		// projections are the Eq. 2 normalization of the group's
		// probability under σi(S).
		fgNeg = argmaxDeltaH(neg, groups, state, trust, scratch, e.sign())
		// Rank the positive side against the state as it will look once
		// the negative group's outcome is absorbed: the two selections of
		// a time point act jointly on the trust update, so scoring FG+
		// against the stale state would systematically prefer groups
		// whose sources the negative evaluation is about to discredit.
		afterNeg := state.clone()
		afterNeg.absorb(fgNeg.votes, score.Normalize(fgNeg.prob(trust)), fgNeg.size())
		afterNegTrust := afterNeg.vector()
		// The negative group is being evaluated this round, so it is no
		// longer part of F̄ for Eq. 9's sum over remaining groups.
		rest := make([]*group, 0, len(groups)-1)
		for _, g := range groups {
			if g != fgNeg {
				rest = append(rest, g)
			}
		}
		fgPos = argmaxDeltaHWithOutcome(pos, rest, afterNeg, afterNegTrust, trust, scratch, e.sign())
	}
	probNeg := fgNeg.prob(trust)
	probPos := fgPos.prob(trust)
	if e.Strategy == SelectScale && probNeg >= truth.Threshold {
		// Scale profile: a group selected from the negative side at
		// exactly the threshold is a tie (e.g. one CLOSED mark against one
		// stale listing under symmetric trust). Eq. 2's >= rule would
		// confirm it, crediting the laggard and zeroing the flagger — the
		// inverse of the evidence. Strict confirmation resolves threshold
		// ties on the negative stream to false, exactly how the paper's
		// walk-through treats r6 once it is selected as corrupt.
		probNeg = nextBelowThreshold
	}

	n := fgPos.size()
	if fgNeg.size() < n {
		n = fgNeg.size()
	}
	if e.FullGroups {
		if fgNeg.size() > n {
			n = fgNeg.size()
		}
	}
	// Both batches are corroborated under the same σi(S) (Definition 1:
	// all facts selected at ti are evaluated with the trust of ti).
	factsNeg := fgNeg.take(n)
	factsPos := fgPos.take(n)
	for _, f := range factsNeg {
		result.FactProb[f] = probNeg
	}
	for _, f := range factsPos {
		result.FactProb[f] = probPos
	}
	state.absorb(fgNeg.votes, outcome(probNeg, e.SoftAbsorb), n)
	state.absorb(fgPos.votes, outcome(probPos, e.SoftAbsorb), n)
	// take() returns slices aliasing the groups' backing arrays; appending
	// one to the other would overwrite the negative group's remaining
	// facts, so combine into a fresh slice.
	out := make([]int, 0, len(factsNeg)+len(factsPos))
	out = append(out, factsNeg...)
	return append(out, factsPos...)
}

// argmaxDeltaH returns the candidate group with the highest ∆H(F̄) score
// (Eq. 9): the change in collective entropy of all *other* remaining groups
// if the candidate were evaluated under the current trust. Ties break
// toward the larger group, then the smaller signature, keeping runs
// deterministic.
func argmaxDeltaH(candidates, all []*group, state *trustState, trust []float64, scratch []float64, sign float64) *group {
	return argmaxDeltaHWithOutcome(candidates, all, state, trust, trust, scratch, sign)
}

// argmaxDeltaHWithOutcome ranks candidates by ∆H against the given base
// state/trust, but derives each candidate's hypothetical outcome from
// outcomeTrust (the trust of the round start). The distinction only matters
// for the positive-side ranking, which is scored against the state projected
// after the negative selection while keeping the outcomes of the round.
func argmaxDeltaHWithOutcome(candidates, all []*group, state *trustState, trust, outcomeTrust []float64, scratch []float64, sign float64) *group {
	if len(candidates) == 1 {
		return candidates[0]
	}
	var best *group
	bestScore := 0.0
	for _, g := range candidates {
		s := sign * deltaH(g, all, state, trust, outcomeTrust, scratch)
		if best == nil || s > bestScore ||
			//lint:ignore floatexact tie-break must match the reference bit-for-bit; the byte-identical equivalence contract forbids an epsilon here
			(s == bestScore && (g.size() > best.size() ||
				(g.size() == best.size() && g.signature < best.signature))) {
			best, bestScore = g, s
		}
	}
	return best
}

// deltaH computes Eq. 9 for one candidate group.
func deltaH(g *group, all []*group, state *trustState, trust, outcomeTrust []float64, scratch []float64) float64 {
	outcome := score.Normalize(g.prob(outcomeTrust))
	projected := state.project(g.votes, outcome, g.size(), scratch)
	var sum float64
	for _, other := range all {
		if other == g || other.size() == 0 {
			continue
		}
		before := entropy.H(other.prob(trust))
		after := entropy.H(other.prob(projected))
		sum += float64(other.size()) * (after - before)
	}
	invariant.Finite("∆H score", sum)
	return sum
}

// extremeProb returns the candidate with the highest (hi=true) or lowest
// probability under the given trust. Ties break toward the larger group,
// then the smaller signature.
func extremeProb(candidates []*group, trust []float64, hi bool) *group {
	var best *group
	var bestProb float64
	for _, g := range candidates {
		p := g.prob(trust)
		if !hi {
			p = -p
		}
		if best == nil || p > bestProb ||
			//lint:ignore floatexact tie-break must match the reference bit-for-bit; the byte-identical equivalence contract forbids an epsilon here
			(p == bestProb && (g.size() > best.size() ||
				(g.size() == best.size() && g.signature < best.signature))) {
			best, bestProb = g, p
		}
	}
	return best
}

// stepPS is one time point of the IncEstPS strategy: evaluate the whole
// group with the highest probability (ties to the larger group, then the
// smaller signature).
func (e *IncEstimate) stepPS(groups []*group, state *trustState, result *truth.Result) []int {
	trust := state.vector()
	var best *group
	bestProb := -1.0
	for _, g := range groups {
		if g.size() == 0 {
			continue
		}
		p := g.prob(trust)
		if p > bestProb ||
			//lint:ignore floatexact tie-break must match the reference bit-for-bit; the byte-identical equivalence contract forbids an epsilon here
			(p == bestProb && (g.size() > best.size() ||
				(g.size() == best.size() && g.signature < best.signature))) {
			best, bestProb = g, p
		}
	}
	if best == nil {
		return nil
	}
	return evaluate(best, best.size(), state, result, e.SoftAbsorb)
}

// evaluateAll corroborates every remaining fact in one sweep (used only by
// the round-cap safety valve).
func (e *IncEstimate) evaluateAll(d *truth.Dataset, groups []*group, state *trustState, result *truth.Result, run *Run) {
	live := make([]*group, 0, len(groups))
	for _, g := range groups {
		if g.size() > 0 {
			live = append(live, g)
		}
	}
	all := evaluateBatch(live, state.vector(), state, result, e.SoftAbsorb)
	if len(all) > 0 {
		run.Trajectory = append(run.Trajectory, TimePoint{Trust: state.vector(), Evaluated: all})
	}
}

// clone deep-copies the state; used for hypothetical ∆H projections.
func (t *trustState) clone() *trustState {
	c := &trustState{
		defaultTrust: t.defaultTrust,
		credit:       append([]float64(nil), t.credit...),
		count:        append([]int(nil), t.count...),
		decay:        t.decay,
	}
	if t.fcount != nil {
		c.fcount = append([]float64(nil), t.fcount...)
	}
	return c
}

// project returns the trust vector that would result from evaluating count
// facts with the given posting list and normalized outcome, without
// mutating the state. The scratch slice (len == sources) is reused to avoid
// allocation in the ∆H inner loop; the returned slice aliases it.
func (t *trustState) project(votes []truth.SourceVote, normProb float64, count int, scratch []float64) []float64 {
	for s := range scratch {
		scratch[s] = t.trust(s)
	}
	t.projectInto(votes, normProb, count, scratch)
	return scratch
}
