package core

import (
	"corroborate/internal/entropy"
	"corroborate/internal/score"
)

// rankWorkers overrides the worker count of the sharded stream's shard
// pool; 0 (the default) uses runtime.GOMAXPROCS. Tests raise it to exercise
// the concurrent paths on single-CPU machines. (The ∆H ranking itself is
// sequential: the lazy-greedy queue re-scores so few candidates per round
// that goroutine handoff would dominate, and the pair cache it maintains is
// single-writer by design.)
var rankWorkers = 0

// syncBaseline refreshes the per-round entropy baseline: H(prob(FG)) for
// every live group under the round's trust. Every ∆H candidate of the round
// shares these "before" terms of Eq. 9. The refresh is incremental: only
// ordinals whose cached probability moved since the last sync (flagged by
// syncTrust) pay an entropy call; for everyone else H(probs[ord]) is
// already bitwise current.
func (eng *engine) syncBaseline() {
	for _, g := range eng.live {
		if g.size() > 0 && eng.hStale[g.ord] {
			eng.baseH[g.ord] = entropy.H(eng.probs[g.ord])
			eng.hStale[g.ord] = false
		}
	}
}

// buildPosBaseline patches the round baseline in place with the
// positive-side overlay, whose base state has already absorbed the negative
// selection: groups sharing a source with fgNeg are recomputed under
// afterTrust, every other group's probability is bitwise unchanged and its
// baseline entry is left untouched. The patched entries are saved and
// restored by rankPositive after the ranking — no per-round full-vector
// copy. The recomputed ordinals are tagged as the round's overlay columns —
// their pair-cache terms are neither served nor stored during the positive
// ranking (see lazypq.go).
func (eng *engine) buildPosBaseline(fgNeg *group, afterTrust []float64) {
	eng.overlayEpoch++
	eng.posServeOK = eng.scoreCacheOK
	eng.posSavedOrds = eng.posSavedOrds[:0]
	eng.posSavedH = eng.posSavedH[:0]
	eng.ensureNeighbors(fgNeg)
	for _, ord := range eng.neighbors(fgNeg, &eng.seq) {
		eng.overlayMark[ord] = eng.overlayEpoch
		// The rows that can see an overlay column — or the excluded group —
		// in their Eq. 9 sum are exactly the column's own neighbors; their
		// memoized round-base keys must not be served this epoch. If the
		// list is not cached the affected rows cannot be enumerated and the
		// whole positive ranking forgoes the key memo.
		if rows := eng.nbrCache[ord]; rows != nil {
			for _, r := range rows {
				eng.rowOverlayMark[r] = eng.overlayEpoch
			}
		} else {
			eng.posServeOK = false
		}
		other := eng.groups[ord]
		if other == fgNeg || other.size() == 0 {
			continue
		}
		eng.posSavedOrds = append(eng.posSavedOrds, ord)
		eng.posSavedH = append(eng.posSavedH, eng.baseH[ord])
		eng.baseH[ord] = entropy.H(score.Corrob(other.votes, afterTrust))
	}
}

// extreme returns the live candidate with the highest (hi) or lowest cached
// probability, with the reference tie-break (size, then signature).
func (eng *engine) extreme(candidates []*group, hi bool) *group {
	var best *group
	var bestProb float64
	for _, g := range candidates {
		p := eng.probs[g.ord]
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

// rankPositive runs the positive-side selection of a two-sided round: the
// negative selection's outcome is hypothetically absorbed into the real
// state — the handful of touched credit/count entries are saved first and
// restored bitwise after the ranking, so no per-round clone or allocation —
// the entropy baseline is patched for the groups the negative selection
// touched, and the positive candidates are ranked against the projected
// state. The absorption is hypothetical, so it is not noted to the pair
// cache. The projected trust vector is built sparsely: the absorb moves
// credit only at fgNeg's sources, so every other entry is the round trust,
// bitwise.
func (eng *engine) rankPositive(pos []*group, fgNeg *group) *group {
	st := eng.state
	credit := eng.posSavedCredit[:0]
	count := eng.posSavedCount[:0]
	for _, sv := range fgNeg.votes {
		credit = append(credit, st.credit[sv.Source])
		count = append(count, st.count[sv.Source])
	}
	eng.posSavedCredit, eng.posSavedCount = credit, count
	st.absorb(fgNeg.votes, score.Normalize(eng.probs[fgNeg.ord]), fgNeg.size())
	afterTrust := eng.afterTrust
	copy(afterTrust, eng.trust)
	for _, sv := range fgNeg.votes {
		afterTrust[sv.Source] = st.trust(sv.Source)
	}
	eng.buildPosBaseline(fgNeg, afterTrust)
	fg := eng.rankLazy(pos, fgNeg, st, afterTrust, eng.baseH, eng.cfg.sign(), true)
	for i, ord := range eng.posSavedOrds {
		eng.baseH[ord] = eng.posSavedH[i]
	}
	for i, sv := range fgNeg.votes {
		st.credit[sv.Source] = credit[i]
		st.count[sv.Source] = count[i]
	}
	return fg
}
