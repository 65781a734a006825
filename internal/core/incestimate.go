package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	driver "corroborate/internal/engine"
	"corroborate/internal/invariant"
	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// Selector identifies a fact-selection strategy for IncEstimate.
type Selector int

const (
	// SelectHeu is IncEstHeu (Algorithm 2): at each time point, pick the
	// positive and the negative fact group with the highest ∆H(F̄) score
	// and evaluate the same number of facts from each.
	SelectHeu Selector = iota
	// SelectPS is IncEstPS: always evaluate the whole fact group with the
	// highest probability. Included as the paper's ablation of the
	// entropy-driven heuristic.
	SelectPS
	// SelectScale is the scale-stabilized realization of IncEstHeu for
	// datasets orders of magnitude larger than their fact-group count. It
	// keeps Algorithm 1's incremental structure and Algorithm 2's balanced
	// two-sided rounds, but replaces the per-group ∆H ranking — which the
	// EXPERIMENTS.md ablations show destabilizes the trust estimates at
	// crawl scale — with three rules each grounded in the paper's own
	// arguments: the most confidently false group is selected on the
	// negative side, the largest group on the positive side (so every
	// source's affirmative evidence flows at its natural rate), and an
	// affirmative-only fact backed by at least one positive source is
	// never projected corrupt (§2.3's round-3 argument). Combine with
	// DeferBand (NewScale does) to hold maximum-entropy unconflicted
	// groups back until the trust estimates mature.
	SelectScale
	// SelectHybrid is an experimental selector: confident negative pick,
	// entropy-ranked positive pick. Ablation only.
	SelectHybrid
)

// String returns the paper's name for the strategy.
func (s Selector) String() string {
	switch s {
	case SelectHeu:
		return "IncEstHeu"
	case SelectPS:
		return "IncEstPS"
	case SelectScale:
		return "IncEstScale"
	case SelectHybrid:
		return "IncEstHybrid"
	default:
		return fmt.Sprintf("Selector(%d)", int(s))
	}
}

// IncEstimate is the incremental corroboration algorithm (Algorithm 1).
// The zero value is ready to use and runs IncEstHeu with the paper's
// defaults. Runs refuse an InitialTrust or DeferBand that is NaN or
// outside [0, 1].
type IncEstimate struct {
	// Strategy picks the fact-selection heuristic (default SelectHeu).
	Strategy Selector
	// InitialTrust is σ0(S), the default trust each source starts with and
	// falls back to while it has no evaluated facts; 0 means the paper's
	// default of 0.9. The paper observes (§6.1.1) that any default above
	// 0.5 yields the same corroboration result.
	InitialTrust float64
	// FullGroups disables the paper's balanced truncation (Algorithm 2
	// line 7, n = min of the two group sizes) and evaluates both selected
	// groups entirely. An ablation knob: truncation guards against the
	// larger side dominating the trust update, at the cost of many more
	// time points on datasets with small conflicted groups.
	FullGroups bool
	// FlipDeltaH ranks groups by the largest entropy DECREASE of the
	// remaining facts (information gain) instead of the largest increase.
	// Ablation knob for the sign ambiguity in Eq. 9.
	FlipDeltaH bool
	// SoftAbsorb makes Update_Trust absorb the raw corroborated
	// probability of an evaluated fact instead of its Eq. 2 normalization
	// (the paper's walk-through uses hard 0/1 outcomes; soft absorption is
	// an ablation that bounds trust overshoot on large noisy datasets).
	SoftAbsorb bool
	// DeferBand defers maximum-entropy affirmative-only negative groups: a
	// group from F* (T votes only) on the negative side is only eligible
	// for selection when its probability is at most 0.5 - DeferBand;
	// affirmative-only groups inside the band wait until the trust
	// estimates have matured (they are re-partitioned every round and
	// decided either after leaving the band or in the final sweep). Groups
	// carrying an F vote are always decidable: explicit conflict is the
	// only grounded negative signal, and acting on it early is what
	// bootstraps the multi-value trust (the paper's r12). This
	// operationalizes the paper's entropy principle — keep high-entropy
	// unconflicted facts undecided as long as possible. 0 disables
	// deferral (the literal Algorithm 2).
	DeferBand float64
}

// TimePoint records one round of the incremental algorithm for trajectory
// analysis (Figure 2 of the paper).
type TimePoint struct {
	// Trust is σi(S) after absorbing this round's evaluations.
	Trust []float64
	// Evaluated lists the fact indices corroborated at this time point.
	Evaluated []int
}

// Run is the detailed output of IncEstimate: the standard result plus the
// full multi-value trust trajectory.
type Run struct {
	*truth.Result
	// Trajectory has one entry per time point, in evaluation order.
	Trajectory []TimePoint
}

// Name implements driver.Method.
func (e *IncEstimate) Name() string { return e.Strategy.String() }

// RunWith implements driver.Method: Options.MaxIter caps the time points
// and sweeps everything left in one final round once the cap is reached
// (an explicit zero sweeps immediately under the initial trust), and an
// Observer sees one Round per time point. Cancellation or deadline expiry
// of ctx is checked at every round boundary (time point) and aborts the
// run with an error wrapping ctx.Err(). Rounds are never interrupted
// mid-flight, so a cancelled run has absorbed either all or none of any
// round's outcomes.
func (e *IncEstimate) RunWith(ctx context.Context, d *truth.Dataset, opts driver.Options) (*truth.Result, error) {
	run, err := e.RunDetailedWith(ctx, d, opts)
	if err != nil {
		return nil, err
	}
	return run.Result, nil
}

// RunDetailedWith is RunWith returning the trust trajectory of every time
// point along with the result, under the same options and round-boundary
// cancellation contract.
func (e *IncEstimate) RunDetailedWith(ctx context.Context, d *truth.Dataset, opts driver.Options) (*Run, error) {
	init, err := e.checkConfig()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return e.runEngine(ctx, d, init, opts)
}

// checkConfig refuses a configuration that no run can use: an unknown
// strategy, or an initial trust or defer band that is NaN or outside
// [0, 1]. Otherwise it returns σ0(S), the initial trust with 0 resolved to
// the paper's default of 0.9.
func (e *IncEstimate) checkConfig() (init float64, err error) {
	if e.Strategy < SelectHeu || e.Strategy > SelectHybrid {
		return 0, fmt.Errorf("unknown selector %d", int(e.Strategy))
	}
	init = e.InitialTrust
	if init == 0 {
		init = 0.9
	}
	if bad01(init) {
		return 0, fmt.Errorf("initial trust %v out of [0, 1]", init)
	}
	if bad01(e.DeferBand) {
		return 0, fmt.Errorf("defer band %v out of [0, 1]", e.DeferBand)
	}
	return init, nil
}

// runEngine is the incremental realization of Algorithm 1: identical
// round structure to the naive reference the equivalence suite keeps
// (reference_test.go), with every trust-vector read, group probability,
// and ∆H entropy term served from the engine's exact caches
// (see index.go and deltah.go). The round loop runs on the shared driver:
// one Step per time point, cancellation at round boundaries, and the
// Options.MaxIter sweep.
func (e *IncEstimate) runEngine(ctx context.Context, d *truth.Dataset, init float64, opts driver.Options) (*Run, error) {
	groups := buildGroups(d)
	state := newTrustState(d.NumSources(), init)
	result := truth.NewResult(e.Name(), d)
	run := &Run{Result: result}
	eng := newEngine(e, d, state, groups, result)

	cfg := opts.Resolve(ctx, driver.Defaults{})
	// The MaxIter cap is not a hard stop: reaching it triggers the
	// final evaluate-everything sweep, which must itself run as a round.
	// So the valve lives inside the Step and the driver runs uncapped,
	// terminating through the Step's done signal.
	sweepAt, hasSweep := cfg.MaxIter, cfg.Capped
	runCfg := cfg
	runCfg.MaxIter, runCfg.Capped = 0, false

	remaining := d.NumFacts()
	if remaining > 0 {
		_, err := driver.Iterate(runCfg, func(round int) (float64, bool, error) {
			eng.syncTrust()
			if hasSweep && round >= sweepAt {
				eng.evaluateAll(run)
				remaining = 0
				return driver.NoDelta, true, nil
			}
			var evaluated []int
			switch e.Strategy {
			case SelectPS:
				evaluated = eng.stepPS()
			default:
				evaluated = eng.stepBalanced()
			}
			if len(evaluated) == 0 {
				return 0, false, fmt.Errorf("core: round %d selected no facts with %d remaining", round, remaining)
			}
			remaining -= len(evaluated)
			eng.compact()
			eng.syncTrust()
			run.Trajectory = append(run.Trajectory, TimePoint{
				Trust:     append([]float64(nil), eng.trust...),
				Evaluated: evaluated,
			})
			return driver.NoDelta, remaining == 0, nil
		})
		if err != nil {
			var c *driver.Cancelled
			if errors.As(err, &c) {
				return nil, fmt.Errorf("core: corroboration cancelled at round %d with %d facts remaining: %w",
					c.Round, remaining, c.Err)
			}
			return nil, err
		}
	}

	result.Trust = state.vector()
	invariant.TrustNormalized("IncEstimate trust", result.Trust)
	result.Iterations = len(run.Trajectory)
	result.Finalize()
	return run, nil
}

// stepBalanced is one time point of Algorithm 2 (and of the SelectScale
// and SelectHybrid variants, which differ only in how each side is ranked),
// served from the cached probabilities.
func (eng *engine) stepBalanced() []int {
	e := eng.cfg
	if e.Strategy == SelectHeu || e.Strategy == SelectHybrid {
		eng.syncBaseline()
	}
	var pos, neg []*group
	deferred := 0
	for _, g := range eng.live {
		if g.size() == 0 {
			continue
		}
		// Algorithm 2 line 3 partitions strictly: σ(FG) > 0.5 is the
		// positive part, everything else (including probability exactly
		// 0.5) the negative part, although Eq. 2 resolves 0.5 to true. This
		// is what lets the motivating example's r6 (0.5 under the initial
		// trust) be deferred instead of eagerly confirmed.
		p := eng.probs[g.ord]
		switch {
		case p > truth.Threshold:
			pos = append(pos, g)
		case e.Strategy == SelectScale && !g.conflicted() && g.backedByPositive(eng.trust):
			// Scale profile: an affirmative-only fact backed by at least
			// one positive source is projected valid (the paper's round-3
			// argument); only facts backed exclusively by negative
			// sources are candidates for rejection.
			pos = append(pos, g)
		case e.DeferBand > 0 && p > truth.Threshold-e.DeferBand && !g.conflicted():
			deferred++
		default:
			neg = append(neg, g)
		}
	}
	// §5.1: when every remaining group is projected to the same side,
	// evaluate all of them at once. Deferred-band groups only join the
	// sweep once no decidable group is left on either side.
	if len(pos) == 0 && len(neg) == 0 {
		var all []*group
		for _, g := range eng.live {
			if g.size() > 0 {
				all = append(all, g)
			}
		}
		return eng.evaluateBatch(all)
	}
	if len(pos) == 0 || len(neg) == 0 {
		side := pos
		if len(pos) == 0 {
			side = neg
		}
		// While deferred groups remain (their probabilities move as trust
		// evolves), evaluate one group of the side per time point.
		if deferred == 0 {
			return eng.evaluateBatch(side)
		}
		var g *group
		switch {
		case e.Strategy == SelectScale && len(pos) > 0:
			g = eng.extreme(side, true)
		case e.Strategy == SelectScale:
			g = eng.extreme(side, false)
		default:
			g = eng.rankLazy(side, nil, eng.state, eng.trust, eng.baseH, e.sign(), false)
		}
		return eng.evaluate(g, g.size())
	}
	var fgNeg, fgPos *group
	if e.Strategy == SelectScale {
		// Confident negative first; the largest positive group second, so
		// every source's affirmative evidence keeps flowing at its natural
		// rate while conflict-exposed sources dip on the negative stream.
		fgNeg = eng.extreme(neg, false)
		fgPos = largest(pos)
	} else if e.Strategy == SelectHybrid {
		fgNeg = eng.extreme(neg, false)
		fgPos = eng.rankPositive(pos, fgNeg)
	} else {
		// Rank the negative side first: uncovering a projected-false group
		// is what moves trust away from its optimistic default. The
		// positive side is ranked against the state as it will look once
		// that group's outcome is absorbed, because the two selections of
		// a time point act jointly on the trust update.
		fgNeg = eng.rankLazy(neg, nil, eng.state, eng.trust, eng.baseH, e.sign(), false)
		fgPos = eng.rankPositive(pos, fgNeg)
	}
	probNeg := eng.probs[fgNeg.ord]
	probPos := eng.probs[fgPos.ord]
	if e.Strategy == SelectScale && probNeg >= truth.Threshold {
		// Scale profile: a negative-side pick at exactly the threshold is
		// a tie (one CLOSED mark against one stale listing under symmetric
		// trust); resolve it to false, as the paper's walk-through treats
		// r6 once it is selected as corrupt.
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
		eng.result.FactProb[f] = probNeg
	}
	for _, f := range factsPos {
		eng.result.FactProb[f] = probPos
	}
	eng.state.absorb(fgNeg.votes, outcome(probNeg, e.SoftAbsorb), n)
	eng.noteAbsorb(fgNeg)
	eng.state.absorb(fgPos.votes, outcome(probPos, e.SoftAbsorb), n)
	eng.noteAbsorb(fgPos)
	// take() returns slices aliasing the groups' backing arrays; appending
	// one to the other would overwrite the negative group's remaining
	// facts, so combine into a fresh slice.
	out := make([]int, 0, len(factsNeg)+len(factsPos))
	out = append(out, factsNeg...)
	return append(out, factsPos...)
}

// stepPS is one time point of the IncEstPS strategy: evaluate the whole
// group with the highest probability (ties to the larger group, then the
// smaller signature).
func (eng *engine) stepPS() []int {
	var best *group
	bestProb := -1.0
	for _, g := range eng.live {
		if g.size() == 0 {
			continue
		}
		p := eng.probs[g.ord]
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
	return eng.evaluate(best, best.size())
}

// outcome converts a corroborated probability into the value absorbed by
// the trust update: the Eq. 2 normalization by default, or the raw
// probability under soft absorption.
func outcome(p float64, soft bool) float64 {
	if soft {
		return p
	}
	return score.Normalize(p)
}

// sign translates the FlipDeltaH knob into a ranking multiplier.
func (e *IncEstimate) sign() float64 {
	if e.FlipDeltaH {
		return -1
	}
	return 1
}

// largest returns the candidate with the most remaining facts, breaking
// ties toward the smaller signature.
func largest(candidates []*group) *group {
	var best *group
	for _, g := range candidates {
		if best == nil || g.size() > best.size() ||
			(g.size() == best.size() && g.signature < best.signature) {
			best = g
		}
	}
	return best
}

// nextBelowThreshold is the largest probability that still resolves to
// false under Eq. 2.
var nextBelowThreshold = math.Nextafter(truth.Threshold, 0)

// compact drops exhausted groups.
func compact(groups []*group) []*group {
	out := groups[:0]
	for _, g := range groups {
		if g.size() > 0 {
			out = append(out, g)
		}
	}
	return out
}

var _ driver.Method = (*IncEstimate)(nil)

// NewHeu returns an IncEstimate configured for the paper's main strategy.
func NewHeu() *IncEstimate { return &IncEstimate{Strategy: SelectHeu} }

// NewPS returns an IncEstimate configured for the greedy ablation strategy.
func NewPS() *IncEstimate { return &IncEstimate{Strategy: SelectPS} }

// NewScale returns an IncEstimate configured with the scale-stabilized
// profile: confident-first balanced selection with a maximum-entropy
// deferral band of 0.12.
func NewScale() *IncEstimate { return &IncEstimate{Strategy: SelectScale, DeferBand: 0.12} }
