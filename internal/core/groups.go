// Package core implements the paper's contribution: the IncEstimate
// incremental corroboration algorithm (Wu & Marian, EDBT 2014, §4–5) with a
// multi-value trust score per source. Instead of computing one global trust
// value and applying it to all facts at once, IncEstimate repeatedly selects
// a batch of unevaluated facts, corroborates them with the trust values
// current at that time point, and folds the (normalized) outcomes back into
// the trust estimates. The sequence of per-time-point trust vectors is the
// multi-value trust score of Definition 1.
//
// Two fact-selection strategies are provided: IncEstHeu, the entropy-driven
// heuristic of Algorithm 2 (select the positive and the negative fact group
// with the highest projected entropy gain ∆H(F̄), Eq. 9, in balanced
// numbers), and IncEstPS, the naive greedy strategy that always evaluates
// the group with the highest probability (§6.1.1).
package core

import (
	"sort"

	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// group is a fact group (§5.1): the set of unevaluated facts sharing one
// exact vote signature. Facts in a group always receive the same
// corroboration result, because Corrob only looks at votes.
type group struct {
	signature string
	votes     []truth.SourceVote // the shared posting list
	facts     []int              // remaining (unevaluated) member facts, ascending
	// ord is the group's stable position in the signature-sorted order of
	// buildGroups. Compaction preserves relative order, so iterating live
	// groups always visits ascending ordinals — the invariant the
	// incremental ∆H engine relies on to accumulate floating-point sums in
	// exactly the order of the reference implementation.
	ord int
}

// size returns the number of unevaluated facts left in the group.
func (g *group) size() int { return len(g.facts) }

// prob is the group's corroborated probability under the given trust
// vector (Eq. 5 generalized to F votes).
func (g *group) prob(trust []float64) float64 {
	return score.Corrob(g.votes, trust)
}

// buildGroups partitions all facts of the dataset into vote-signature
// groups, ordered deterministically by signature. Facts without any vote
// form their own group (empty signature) and corroborate to 0.5.
func buildGroups(d *truth.Dataset) []*group {
	return groupPostings(d.NumFacts(), d.VotesOnFact)
}

// groupPostings partitions facts 0..n-1, whose posting lists votesOn
// returns ordered by source index, into vote-signature groups ordered by
// signature. A group shares the posting list of its first fact.
func groupPostings(n int, votesOn func(f int) []truth.SourceVote) []*group {
	bySig := make(map[string]*group)
	buf := make([]byte, 0, 64)
	for f := 0; f < n; f++ {
		votes := votesOn(f)
		buf = truth.AppendVoteSignature(buf[:0], votes)
		// The map lookup on string(buf) does not allocate; only a newly
		// discovered signature pays for the string conversion.
		g, ok := bySig[string(buf)]
		if !ok {
			g = &group{signature: string(buf), votes: votes}
			bySig[g.signature] = g
		}
		g.facts = append(g.facts, f)
	}
	out := make([]*group, 0, len(bySig))
	for _, g := range bySig {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].signature < out[j].signature })
	for i, g := range out {
		g.ord = i
	}
	return out
}

// take removes and returns the first n facts of the group (ascending fact
// order keeps runs deterministic).
func (g *group) take(n int) []int {
	if n > len(g.facts) {
		n = len(g.facts)
	}
	taken := g.facts[:n]
	g.facts = g.facts[n:]
	return taken
}

// conflicted reports whether the group's signature carries an F vote.
func (g *group) conflicted() bool {
	for _, sv := range g.votes {
		if sv.Vote == truth.Deny {
			return true
		}
	}
	return false
}

// backedByPositive reports whether any affirming source of the group is
// currently a positive source (trust above 0.5).
func (g *group) backedByPositive(trust []float64) bool {
	for _, sv := range g.votes {
		if sv.Vote == truth.Affirm && trust[sv.Source] > 0.5 {
			return true
		}
	}
	return false
}
