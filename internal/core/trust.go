package core

import (
	"corroborate/internal/invariant"
	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// trustState tracks the incrementally calculated trust score (Definition 1):
// for each source, the sum and count of credits earned from the facts
// evaluated so far. A source with no evaluated facts reports the default
// trust, matching the '-' entries in the paper's Figure 1 walk-through
// (undefined trust falls back to the initial value when used).
type trustState struct {
	defaultTrust float64
	credit       []float64
	count        []int

	// Decay, when enabled, ages prior evidence geometrically: before a new
	// batch is absorbed, every source's credit and evaluation mass are
	// scaled by λ = decay, so a fact absorbed k batches ago carries weight
	// λ^k. Scaling credit and mass by the same factor preserves every
	// credit/mass ratio, so decay never changes the decisions of the batch
	// that triggers it — only how fast old batches stop dominating. fcount
	// is the decayed (fractional) evaluation mass and is non-nil exactly
	// when decay is enabled; the int count path stays untouched otherwise,
	// keeping decay-disabled streams bit-identical to the pre-decay engine.
	decay  float64
	fcount []float64
}

func newTrustState(sources int, defaultTrust float64) *trustState {
	return &trustState{
		defaultTrust: defaultTrust,
		credit:       make([]float64, sources),
		count:        make([]int, sources),
	}
}

// enableDecay switches the state to decayed-evidence mode with the given
// per-batch factor λ ∈ (0, 1), seeding the fractional mass from whatever
// integer counts have accumulated so far.
func (t *trustState) enableDecay(lambda float64) {
	t.decay = lambda
	t.fcount = make([]float64, len(t.count))
	for s, c := range t.count {
		t.fcount[s] = float64(c)
	}
}

// applyDecay scales every source's accumulated evidence by λ, called once
// per batch boundary. Credit and mass shrink by the same factor, so the
// trust vector read immediately after applyDecay is identical to the one
// read immediately before — the aging only shifts how much weight the NEXT
// absorption carries relative to history.
func (t *trustState) applyDecay() {
	if t.fcount == nil {
		return
	}
	for s := range t.credit {
		t.credit[s] *= t.decay
		t.fcount[s] *= t.decay
	}
}

// trust returns source s's current trust value σi(s).
func (t *trustState) trust(s int) float64 {
	credit, count := t.credit[s], float64(t.count[s])
	if t.fcount != nil {
		count = t.fcount[s]
	}
	if count == 0 {
		return t.defaultTrust
	}
	return credit / count
}

// vector materializes the whole trust vector; the returned slice is owned
// by the caller.
func (t *trustState) vector() []float64 {
	return t.vectorInto(make([]float64, len(t.credit)))
}

// vectorInto fills dst (len == sources) with the current trust vector and
// returns it; hot paths reuse one per-run buffer instead of allocating a
// fresh vector every round.
func (t *trustState) vectorInto(dst []float64) []float64 {
	for s := range dst {
		dst[s] = t.trust(s)
	}
	return dst
}

// absorb records the evaluation of count facts sharing the given posting
// list, whose normalized corroboration outcome is normProb (1 for facts
// decided true, 0 for false; the paper's Update_Trust considers the
// probability to be 1 for true facts).
func (t *trustState) absorb(votes []truth.SourceVote, normProb float64, count int) {
	invariant.Prob01("absorbed outcome", normProb)
	for _, sv := range votes {
		t.credit[sv.Source] += float64(count) * score.SourceCredit(sv.Vote, normProb)
		t.count[sv.Source] += count
		if t.fcount != nil {
			t.fcount[sv.Source] += float64(count)
		}
	}
}

// projectInto overwrites dst's entries for the posting list's sources with
// the trust each would have after evaluating count facts with the given
// normalized outcome. dst must already hold the state's current trust for
// every other source; the incremental ∆H engine memcopies a cached vector
// into dst and lets projectInto touch only the |votes| entries that can
// actually move.
func (t *trustState) projectInto(votes []truth.SourceVote, normProb float64, count int, dst []float64) {
	for _, sv := range votes {
		credit := t.credit[sv.Source] + float64(count)*score.SourceCredit(sv.Vote, normProb)
		n := float64(t.count[sv.Source] + count)
		if t.fcount != nil {
			n = t.fcount[sv.Source] + float64(count)
		}
		if n == 0 {
			// Zero evaluated mass (a hypothetical projection of zero
			// facts): fall back to the default trust exactly as trust()
			// does, instead of dividing 0/0 into NaN.
			dst[sv.Source] = t.defaultTrust
			continue
		}
		dst[sv.Source] = credit / n
	}
}
