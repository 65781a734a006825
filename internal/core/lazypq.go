package core

import (
	"container/heap"
	"math"

	"corroborate/internal/entropy"
	"corroborate/internal/invariant"
	"corroborate/internal/score"
)

// Lazy-greedy ∆H selection (the CELF trick adapted to Eq. 9).
//
// The reference ranking recomputes every candidate's full ∆H score every
// round: |candidates| × |neighbors| entropy terms, each a Corrob over the
// column group's posting list plus two logarithms. But a term
//
//	after(c, o) = H(Corrob(votes_o, projected_c))
//
// depends only on (a) the trust state at o's sources, (b) the raw
// credit/count at c∩o's sources, and (c) c's hypothetical outcome and
// remaining size. Between rounds, (a) and (b) move only when an absorbed
// group shares a source with o — exactly the events noteAbsorb translates
// into colGen bumps — and (c) is checked per row. So after-entropy values
// are cached per (candidate, column) pair, stamped with colGen[column], and
// a stored term is valid iff its stamp is current and the row's
// outcome/size match:
//
//	Staleness invariant: if colGen[o] has not advanced since after(c, o)
//	was stored, and c's outcome and size are unchanged, the stored value
//	is bitwise equal to a fresh computation. (Trust-value change detection
//	is NOT sufficient here: projectInto reads raw credit and count, which
//	can move while the derived trust stays bitwise identical — e.g. a
//	source pinned at trust 0 absorbing another false outcome. Absorb
//	events are the ground truth.)
//
// On top of the cache sits the standard lazy-greedy max-heap: each
// candidate enters with either its exact score (every term valid — a pure
// flop sum, no entropy calls) or a sound upper bound (valid terms exact,
// invalid terms bounded by H ∈ [0, 1]). The top of the heap is re-scored
// only when it surfaces stale; once the top is exact it dominates every
// bound below it and is the argmax. Because IEEE round-to-nearest is
// monotone and both sums accumulate the same index sequence in the same
// order, a pointwise bound implies a bounded sum — the laziness never
// changes which group wins, and the exact path is bit-identical to the
// reference (equiv_test.go proves both).
//
// The positive-side ranking reuses the same cache: its base state differs
// from the round base only at the negative selection's sources, so only the
// columns sharing a source with fgNeg (tagged via overlayMark) diverge —
// those are always computed fresh against the overlay baseline and never
// stored; every other column's term is the round-base term, bitwise.

// defaultNbrBudget bounds the neighbor-list cache entries per run;
// defaultPairBudget bounds the pair-cache term entries per run. Tests lower
// them to force the uncached fallbacks.
var (
	defaultNbrBudget  = 4 << 20
	defaultPairBudget = 4 << 20
)

// pairRow is one candidate's cached after-entropy terms, parallel to its
// cached neighbor list. gen[k] is the colGen the k-th term was computed
// under (0 = never); outcome and size are the row-wide candidate inputs the
// terms assumed.
type pairRow struct {
	outcome float64
	size    int
	gen     []uint32
	after   []float64
}

// ensurePairRow returns the candidate's pair row, allocating it if the
// budget allows. A nil row means the candidate is always scored fresh.
func (eng *engine) ensurePairRow(ord, n int) *pairRow {
	if row := eng.pairRows[ord]; row != nil {
		return row
	}
	if eng.pairBudget < n {
		return nil
	}
	eng.pairBudget -= n
	row := &pairRow{
		outcome: math.NaN(), // never equal: first refresh resets the row
		size:    -1,
		gen:     make([]uint32, n),
		after:   make([]float64, n),
	}
	eng.pairRows[ord] = row
	return row
}

// pqItem is one heap entry: a stale candidate under a sound upper bound on
// its signed score.
type pqItem struct {
	g   *group
	key float64
}

// candidateHeap is the lazy-greedy max-heap of stale candidates. Its order
// is deterministic end to end: higher bound first, ties broken by the
// ascending ordinal (ordinals are assigned in signature order, so ordinal
// order is signature order). Every entry with a bound not below the running
// best is refreshed regardless, so the pop order among equal bounds cannot
// change the selected group — the tie-break only pins the order of work.
type candidateHeap []pqItem

func (h candidateHeap) Len() int { return len(h) }

func (h candidateHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	//lint:ignore floatexact heap priorities feed the byte-identical selection contract; an epsilon would reorder candidates the reference orders exactly
	if a.key != b.key {
		return a.key > b.key
	}
	return a.g.ord < b.g.ord
}

func (h candidateHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *candidateHeap) Push(x any) { *h = append(*h, x.(pqItem)) }

func (h *candidateHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// rowKey returns a candidate's heap key without any entropy calls: the
// exact signed score when every cached term is valid, otherwise a sound
// upper bound (invalid terms bounded by after ∈ [0, 1] under the ranking
// sign). The common case is O(1): the key computed last time — exact or
// bound — is served as long as no column in the row's neighbor list has
// advanced its generation since (rowStale, pushed by noteAbsorb; every
// input of both the exact terms and the bound terms is pinned by that
// event). Keys touched by the positive-side overlay, or computed with a
// term skipped or substituted (the excluded group, overlay columns), are
// never served from — or stored into — the memo. Candidates without a
// cached neighbor list or pair row get an infinite bound and are always
// refreshed on surfacing.
func (eng *engine) rowKey(c, exclude *group, baseH []float64, sign float64, overlay bool) (float64, bool) {
	nbrs := eng.nbrCache[c.ord]
	row := eng.pairRows[c.ord]
	if nbrs == nil || row == nil {
		return math.Inf(1), false
	}
	if eng.scoreCacheOK && !eng.rowStale[c.ord] &&
		!(overlay && (!eng.posServeOK || eng.rowOverlayMark[c.ord] == eng.overlayEpoch)) {
		return eng.rowKeyCache[c.ord], eng.rowKeyExact[c.ord]
	}
	out := score.Normalize(eng.probs[c.ord])
	//lint:ignore floatexact cache validity on a stored copy of the same computation; an epsilon would serve stale terms and break bit-identity with the reference
	rowValid := row.outcome == out && row.size == c.size()
	exOrd := int32(-1)
	if exclude != nil {
		exOrd = int32(exclude.ord)
	}
	cOrd := int32(c.ord)
	exact := true
	tainted := false
	var key float64
	// The scan reads only dense per-ordinal arrays (sizes, generations,
	// baselines, the row's own terms) — no group dereference on the hot
	// path, the lists fit low cache levels even at crawl scale.
	for k, ord := range nbrs {
		if ord == cOrd {
			continue
		}
		size := eng.sizeF[ord]
		if size == 0 {
			continue
		}
		if ord == exOrd {
			tainted = true
			continue
		}
		if overlay && eng.overlayMark[ord] == eng.overlayEpoch {
			tainted = true
			exact = false
			if sign > 0 {
				key += size * (1 - baseH[ord])
			} else {
				key += size * baseH[ord]
			}
			continue
		}
		if rowValid && row.gen[k] == eng.colGen[ord] {
			key += sign * size * (row.after[k] - baseH[ord])
		} else {
			exact = false
			if sign > 0 {
				key += size * (1 - baseH[ord])
			} else {
				key += size * baseH[ord]
			}
		}
	}
	if eng.scoreCacheOK && !tainted {
		eng.rowKeyCache[c.ord] = key
		eng.rowKeyExact[c.ord] = exact
		eng.rowStale[c.ord] = false
	}
	return key, exact
}

// refreshRow computes a candidate's exact signed ∆H score, serving valid
// terms from the pair cache and recomputing — and re-stamping — the rest.
// Overlay columns (positive-side ranking only) are computed fresh against
// the overlay baseline and never stored. The accumulation visits neighbors
// in ascending ordinal order, so the sum is bit-identical to the reference
// full scan. The projection is done in place on baseTrust — the candidate's
// few entries are saved, overwritten, and restored bitwise — instead of
// copying the whole vector per refresh.
func (eng *engine) refreshRow(c, exclude *group, st *trustState, baseTrust, baseH []float64, sign float64, overlay bool) float64 {
	nbrs := eng.nbrCache[c.ord]
	if nbrs == nil {
		return sign * eng.scoreDeltaH(c, exclude, st, baseTrust, baseH, &eng.seq)
	}
	out := score.Normalize(eng.probs[c.ord])
	csize := c.size()
	row := eng.ensurePairRow(c.ord, len(nbrs))
	//lint:ignore floatexact cache validity on a stored copy of the same computation; an epsilon would serve stale terms and break bit-identity with the reference
	if row != nil && (row.outcome != out || row.size != csize) {
		row.outcome, row.size = out, csize
		clear(row.gen)
	}
	saved := eng.savedTrust[:0]
	for _, sv := range c.votes {
		saved = append(saved, baseTrust[sv.Source])
	}
	eng.savedTrust = saved
	st.projectInto(c.votes, out, csize, baseTrust)

	exOrd := int32(-1)
	if exclude != nil {
		exOrd = int32(exclude.ord)
	}
	cOrd := int32(c.ord)
	var sum float64
	tainted := false
	for k, ord := range nbrs {
		if ord == cOrd {
			continue
		}
		size := eng.sizeF[ord]
		if size == 0 {
			continue
		}
		if ord == exOrd {
			tainted = true
			continue
		}
		cacheable := row != nil && !(overlay && eng.overlayMark[ord] == eng.overlayEpoch)
		if !cacheable {
			tainted = true
		}
		var after float64
		if cacheable && row.gen[k] == eng.colGen[ord] {
			after = row.after[k]
		} else {
			after = entropy.H(score.Corrob(eng.groups[ord].votes, baseTrust))
			if cacheable {
				row.after[k] = after
				row.gen[k] = eng.colGen[ord]
			}
		}
		sum += size * (after - baseH[ord])
	}
	for i, sv := range c.votes {
		baseTrust[sv.Source] = saved[i]
	}
	invariant.Finite("∆H score", sum)
	// A sum with no skipped or overlay-substituted term is the candidate's
	// canonical round-base score (sign·Σ and Σ of signed terms are bitwise
	// equal: negation is exact); memoize it so later rounds serve the key in
	// O(1) until a neighbor column invalidates the row.
	if row != nil && eng.scoreCacheOK && !tainted {
		eng.rowKeyCache[c.ord] = sign * sum
		eng.rowKeyExact[c.ord] = true
		eng.rowStale[c.ord] = false
	}
	return sign * sum
}

// rankLazy returns the candidate with the highest ∆H score against the
// given base state, trust, and entropy baseline, excluding one group from
// the Eq. 9 sum (the already-selected negative group, or nil). It is the
// lazy-greedy counterpart of the reference argmax scan: candidates with an
// exact (cached or freshly summed) score compete directly for the argmax;
// stale candidates enter a max-heap under their sound upper bounds, pruned
// of every bound strictly below the best exact key — those cannot win even
// a tie. The heap is drained from the top, each surfaced candidate
// re-scored exactly, until the remaining bounds are all dominated. The
// winner — and every floating-point value that decides it — is
// bit-identical to ranking all candidates fresh: a bound equal to the best
// key is still refreshed, because the refreshed score could tie and take
// the reference tie-break (size descending, then ordinal ascending —
// ordinals are assigned in signature order).
func (eng *engine) rankLazy(candidates []*group, exclude *group, st *trustState, baseTrust, baseH []float64, sign float64, overlay bool) *group {
	if len(candidates) == 1 {
		return candidates[0]
	}
	for _, g := range candidates {
		eng.ensureNeighbors(g)
	}
	var best *group
	var bestKey float64
	h := eng.heapBuf[:0]
	for _, g := range candidates {
		key, exact := eng.rowKey(g, exclude, baseH, sign, overlay)
		if !exact {
			h = append(h, pqItem{g: g, key: key})
			continue
		}
		if best == nil || key > bestKey ||
			//lint:ignore floatexact tie-break must match the reference bit-for-bit; the byte-identical equivalence contract forbids an epsilon here
			(key == bestKey && (g.size() > best.size() ||
				(g.size() == best.size() && g.ord < best.ord))) {
			best, bestKey = g, key
		}
	}
	if best != nil {
		kept := h[:0]
		for _, it := range h {
			//lint:ignore floatexact a bound exactly equal to the best key can still win the tie-break and must be kept; the byte-identical equivalence contract forbids an epsilon here
			if it.key >= bestKey {
				kept = append(kept, it)
			}
		}
		h = kept
	}
	heap.Init(&h)
	//lint:ignore loopdriver not a convergence loop: the CELF drain pops a strictly shrinking heap and the float guard is the lazy-greedy dominance cut, exact by the byte-identity contract
	for len(h) > 0 {
		top := h[0]
		//lint:ignore floatexact a bound exactly equal to the best key can still win the tie-break and must be refreshed; the byte-identical equivalence contract forbids an epsilon here
		if best != nil && top.key < bestKey {
			break
		}
		key := eng.refreshRow(top.g, exclude, st, baseTrust, baseH, sign, overlay)
		// Pop without the interface boxing of heap.Pop: move the last
		// element to the root and sift.
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		if n > 0 {
			heap.Fix(&h, 0)
		}
		g := top.g
		if best == nil || key > bestKey ||
			//lint:ignore floatexact tie-break must match the reference bit-for-bit; the byte-identical equivalence contract forbids an epsilon here
			(key == bestKey && (g.size() > best.size() ||
				(g.size() == best.size() && g.ord < best.ord))) {
			best, bestKey = g, key
		}
	}
	eng.heapBuf = h
	return best
}
