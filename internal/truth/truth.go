// Package truth defines the shared data model for the corroboration
// (truth-discovery) problem studied in Wu & Marian, "Corroborating Facts
// from Affirmative Statements" (EDBT 2014): a set of sources casting
// affirmative (T), negative (F), or absent (-) votes over a set of boolean
// facts, plus optional ground-truth labels used for evaluation.
//
// The package is deliberately algorithm-free: every corroboration method in
// this repository (the paper's IncEstimate as well as all baselines) consumes
// a *Dataset and produces a *Result, so datasets, metrics, and algorithms
// compose freely.
package truth

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Vote is a single source's statement about a single fact.
type Vote int8

const (
	// Absent means the source expressed no opinion about the fact ('-' in
	// the paper). It is the zero value so that unset entries in a dense
	// matrix naturally mean "no vote".
	Absent Vote = iota
	// Affirm is an affirmative statement: the source supports the fact
	// being true (a T vote).
	Affirm
	// Deny is a disagreeing statement: the source claims the fact is false
	// (an F vote, e.g. a restaurant listed as CLOSED).
	Deny
)

// String returns the paper's notation for the vote: "T", "F", or "-".
func (v Vote) String() string {
	switch v {
	case Affirm:
		return "T"
	case Deny:
		return "F"
	case Absent:
		return "-"
	default:
		return fmt.Sprintf("Vote(%d)", int8(v))
	}
}

// Valid reports whether v is one of the three defined vote values.
func (v Vote) Valid() bool { return v == Absent || v == Affirm || v == Deny }

// ParseVote converts the paper's notation ("T", "F", "-") to a Vote.
// It accepts a few common synonyms ("true"/"false"/"1"/"0"/"") and is
// case-insensitive.
func ParseVote(s string) (Vote, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "t", "true", "1", "+", "yes":
		return Affirm, nil
	case "f", "false", "0", "no":
		return Deny, nil
	case "-", "", "_", "none", "?":
		return Absent, nil
	default:
		return Absent, fmt.Errorf("truth: cannot parse vote %q", s)
	}
}

// Label is the (possibly unknown) ground-truth value of a fact.
type Label int8

const (
	// Unknown means no ground truth is available for the fact.
	Unknown Label = iota
	// True means the fact is correct.
	True
	// False means the fact is erroneous.
	False
)

// String returns "true", "false", or "unknown".
func (l Label) String() string {
	switch l {
	case True:
		return "true"
	case False:
		return "false"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Label(%d)", int8(l))
	}
}

// Valid reports whether l is one of the three defined label values.
func (l Label) Valid() bool { return l == Unknown || l == True || l == False }

// ParseLabel converts a string to a Label.
func ParseLabel(s string) (Label, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "true", "t", "1":
		return True, nil
	case "false", "f", "0":
		return False, nil
	case "unknown", "", "-", "?":
		return Unknown, nil
	default:
		return Unknown, fmt.Errorf("truth: cannot parse label %q", s)
	}
}

// LabelOf converts a corroborated probability to a Label using the paper's
// Equation 2: true iff the probability is at least the threshold (0.5).
func LabelOf(prob, threshold float64) Label {
	if prob >= threshold {
		return True
	}
	return False
}

// Threshold is the decision threshold used throughout the paper (Eq. 2).
const Threshold = 0.5

// SourceVote is one (source, vote) entry in a fact's posting list.
type SourceVote struct {
	Source int
	Vote   Vote
}

// FactVote is one (fact, vote) entry in a source's posting list.
type FactVote struct {
	Fact int
	Vote Vote
}

// ErrNoVotes is returned by algorithms that require at least one vote.
var ErrNoVotes = errors.New("truth: dataset contains no votes")

// Dataset is an immutable-after-build sparse vote matrix: |S| sources by
// |F| facts. Build one with a Builder.
//
// # Storage layout
//
// The canonical storage is flat and columnar: names live once in two
// append-only symbol tables (Interner), and the votes are a fact-major CSR
// matrix of parallel columns — factStarts[f] .. factStarts[f+1] delimits
// fact f's slots in voteSources (interned uint32 source IDs) and voteValues
// (the T/F votes). Labels are one more parallel column. Nothing in the
// canonical form is a pointer, so a 10M-fact world is a handful of large
// contiguous allocations instead of millions of small ones.
//
// Because every algorithm in the repository iterates posting lists as
// []SourceVote / []FactVote, Build additionally materializes two derived
// iteration views — factArena (fact orientation) and srcArena (source
// orientation, with its own srcStarts) — each a single contiguous
// allocation that VotesOnFact/VotesBySource slice into. The views are
// plain re-encodings of the columns; Validate cross-checks them.
type Dataset struct {
	sources Interner
	facts   Interner

	// Canonical columnar storage (fact-major CSR). len(factStarts) is
	// NumFacts()+1; voteSources and voteValues are parallel.
	factStarts  []uint32
	voteSources []uint32
	voteValues  []Vote

	// labels[f] is the ground truth of fact f, Unknown if unavailable.
	labels []Label

	// golden, when non-nil, restricts evaluation to a subset of fact
	// indices (the paper's in-person-audited golden set).
	golden []int

	// Derived iteration views (see the type comment).
	factArena []SourceVote
	srcStarts []uint32
	srcArena  []FactVote
}

// NumSources returns |S|.
func (d *Dataset) NumSources() int { return d.sources.Len() }

// NumFacts returns |F|.
func (d *Dataset) NumFacts() int { return d.facts.Len() }

// NumVotes returns the total number of non-absent votes.
func (d *Dataset) NumVotes() int { return len(d.voteValues) }

// SourceName returns the display name of source s.
func (d *Dataset) SourceName(s int) string { return d.sources.Name(uint32(s)) }

// FactName returns the display name of fact f.
func (d *Dataset) FactName(f int) string { return d.facts.Name(uint32(f)) }

// SourceNames returns a copy of all source names in index order.
func (d *Dataset) SourceNames() []string { return d.sources.Names() }

// SourceIndex returns the index of the source with the given name, or -1.
func (d *Dataset) SourceIndex(name string) int {
	if id, ok := d.sources.Lookup(name); ok {
		return int(id)
	}
	return -1
}

// FactIndex returns the index of the fact with the given name, or -1.
func (d *Dataset) FactIndex(name string) int {
	if id, ok := d.facts.Lookup(name); ok {
		return int(id)
	}
	return -1
}

// Vote returns source s's vote on fact f (Absent if none).
func (d *Dataset) Vote(f, s int) Vote {
	for i := d.factStarts[f]; i < d.factStarts[f+1]; i++ {
		if d.voteSources[i] == uint32(s) {
			return d.voteValues[i]
		}
		if d.voteSources[i] > uint32(s) {
			break
		}
	}
	return Absent
}

// VotesOnFact returns fact f's posting list, ordered by source index.
// The returned slice is shared; callers must not modify it.
func (d *Dataset) VotesOnFact(f int) []SourceVote {
	return d.factArena[d.factStarts[f]:d.factStarts[f+1]]
}

// VotesBySource returns source s's posting list, ordered by fact index.
// The returned slice is shared; callers must not modify it.
func (d *Dataset) VotesBySource(s int) []FactVote {
	return d.srcArena[d.srcStarts[s]:d.srcStarts[s+1]]
}

// Label returns the ground truth of fact f (Unknown if unavailable).
func (d *Dataset) Label(f int) Label { return d.labels[f] }

// HasTruth reports whether any fact carries a ground-truth label.
func (d *Dataset) HasTruth() bool {
	for _, l := range d.labels {
		if l != Unknown {
			return true
		}
	}
	return false
}

// Golden returns the evaluation subset: the explicit golden set if one was
// declared, otherwise the indices of every fact with a known label.
func (d *Dataset) Golden() []int {
	if d.golden != nil {
		out := make([]int, len(d.golden))
		copy(out, d.golden)
		return out
	}
	var out []int
	for f, l := range d.labels {
		if l != Unknown {
			out = append(out, f)
		}
	}
	return out
}

// HasGolden reports whether an explicit golden set was declared.
func (d *Dataset) HasGolden() bool { return d.golden != nil }

// EachGolden iterates the evaluation subset in the order Golden returns it,
// without allocating the copy Golden makes, stopping early when yield
// returns false. The golden-set scores (metrics.Confuse) walk it so that
// they allocate nothing per fact.
func (d *Dataset) EachGolden(yield func(f int) bool) {
	if d.golden != nil {
		for _, f := range d.golden {
			if !yield(f) {
				return
			}
		}
		return
	}
	for f, l := range d.labels {
		if l != Unknown {
			if !yield(f) {
				return
			}
		}
	}
}

// Signature returns a canonical string identifying the exact vote pattern
// on fact f, e.g. "2:T 4:T" or "3:F 4:T". Facts with equal signatures
// received identical votes from identical sources and therefore form one
// fact group in the IncEstimate algorithm (§5.1).
func (d *Dataset) Signature(f int) string {
	if d.factStarts[f] == d.factStarts[f+1] {
		return ""
	}
	return string(d.AppendSignature(nil, f))
}

// AppendSignature appends fact f's vote signature to buf and returns the
// extended slice. It produces exactly the bytes of Signature(f) without the
// intermediate string, so group builders can reuse one buffer across a
// whole dataset (signature construction dominates group building on large
// crawls — see BenchmarkBuildGroups).
func (d *Dataset) AppendSignature(buf []byte, f int) []byte {
	return AppendVoteSignature(buf, d.VotesOnFact(f))
}

// AppendVoteSignature appends the signature of one posting list, ordered
// by source index as VotesOnFact returns it, to buf and returns the
// extended slice: the source indices in decimal, each with its vote, e.g.
// "2:T 4:T". It is the one signature encoder, so a posting list built
// outside a Dataset (a stream batch's) signs exactly as the same votes
// would inside one.
func AppendVoteSignature(buf []byte, votes []SourceVote) []byte {
	for i, sv := range votes {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(sv.Source), 10)
		buf = append(buf, ':')
		switch v := sv.Vote; v {
		case Affirm:
			buf = append(buf, 'T')
		case Deny:
			buf = append(buf, 'F')
		case Absent:
			buf = append(buf, '-')
		default:
			buf = append(buf, v.String()...)
		}
	}
	return buf
}

// OnlyAffirmative reports whether fact f received T votes only (f ∈ F*).
func (d *Dataset) OnlyAffirmative(f int) bool {
	start, end := d.factStarts[f], d.factStarts[f+1]
	if start == end {
		return false
	}
	for i := start; i < end; i++ {
		if d.voteValues[i] != Affirm {
			return false
		}
	}
	return true
}

// AffirmativeShare returns |F*| / |F|: the fraction of voted facts that
// carry affirmative statements only. The paper's scenario of interest has
// AffirmativeShare close to 1.
func (d *Dataset) AffirmativeShare() float64 {
	voted, only := 0, 0
	for f := 0; f < d.NumFacts(); f++ {
		if d.factStarts[f] == d.factStarts[f+1] {
			continue
		}
		voted++
		if d.OnlyAffirmative(f) {
			only++
		}
	}
	if voted == 0 {
		return 0
	}
	return float64(only) / float64(voted)
}

// Validate checks internal consistency: the CSR columns (monotone starts,
// strictly ordered in-range sources, T/F votes only, label validity), and
// that both derived iteration views are exact re-encodings of the columns.
// A Dataset produced by a Builder always validates; the method exists for
// datasets read from files.
func (d *Dataset) Validate() error {
	numFacts, numSources := d.facts.Len(), d.sources.Len()
	if len(d.labels) != numFacts {
		return fmt.Errorf("truth: %d labels for %d facts", len(d.labels), numFacts)
	}
	if len(d.factStarts) != numFacts+1 {
		return fmt.Errorf("truth: %d fact starts for %d facts", len(d.factStarts), numFacts)
	}
	if len(d.voteSources) != len(d.voteValues) {
		return fmt.Errorf("truth: %d vote sources for %d vote values", len(d.voteSources), len(d.voteValues))
	}
	if numFacts > 0 && d.factStarts[0] != 0 {
		return fmt.Errorf("truth: fact starts begin at %d, want 0", d.factStarts[0])
	}
	if len(d.factStarts) > 0 && int(d.factStarts[numFacts]) != len(d.voteValues) {
		return fmt.Errorf("truth: fact starts end at %d for %d votes", d.factStarts[numFacts], len(d.voteValues))
	}
	for f := 0; f < numFacts; f++ {
		if d.factStarts[f] > d.factStarts[f+1] {
			return fmt.Errorf("truth: fact starts not monotone at fact %d", f)
		}
		prev := -1
		for i := d.factStarts[f]; i < d.factStarts[f+1]; i++ {
			s := int(d.voteSources[i])
			if s <= prev {
				return fmt.Errorf("truth: fact %d posting list not strictly ordered", f)
			}
			prev = s
			if s >= numSources {
				return fmt.Errorf("truth: fact %d references source %d out of range", f, s)
			}
			if v := d.voteValues[i]; v != Affirm && v != Deny {
				return fmt.Errorf("truth: fact %d stores non-vote %v", f, v)
			}
		}
	}
	if len(d.factArena) != len(d.voteValues) {
		return fmt.Errorf("truth: fact arena holds %d votes, want %d", len(d.factArena), len(d.voteValues))
	}
	for i, sv := range d.factArena {
		if uint32(sv.Source) != d.voteSources[i] || sv.Vote != d.voteValues[i] {
			return fmt.Errorf("truth: fact arena slot %d diverges from columns", i)
		}
	}
	if len(d.srcStarts) != numSources+1 {
		return fmt.Errorf("truth: %d source starts for %d sources", len(d.srcStarts), numSources)
	}
	if len(d.srcArena) != len(d.voteValues) {
		return fmt.Errorf("truth: source arena holds %d votes, want %d", len(d.srcArena), len(d.voteValues))
	}
	if numSources > 0 && d.srcStarts[0] != 0 {
		return fmt.Errorf("truth: source starts begin at %d, want 0", d.srcStarts[0])
	}
	if len(d.srcStarts) > 0 && int(d.srcStarts[numSources]) != len(d.srcArena) {
		return fmt.Errorf("truth: source starts end at %d for %d votes", d.srcStarts[numSources], len(d.srcArena))
	}
	for s := 0; s < numSources; s++ {
		if d.srcStarts[s] > d.srcStarts[s+1] {
			return fmt.Errorf("truth: source starts not monotone at source %d", s)
		}
		prev := -1
		for i := d.srcStarts[s]; i < d.srcStarts[s+1]; i++ {
			fv := d.srcArena[i]
			if fv.Fact <= prev {
				return fmt.Errorf("truth: source %d posting list not strictly ordered", s)
			}
			prev = fv.Fact
			if fv.Fact < 0 || fv.Fact >= numFacts {
				return fmt.Errorf("truth: source %d references fact %d out of range", s, fv.Fact)
			}
			if got := d.Vote(fv.Fact, s); got != fv.Vote {
				return fmt.Errorf("truth: vote mismatch between orientations at fact %d source %d: %v vs %v", fv.Fact, s, fv.Vote, got)
			}
		}
	}
	for f, l := range d.labels {
		if !l.Valid() {
			return fmt.Errorf("truth: fact %d has invalid label %d", f, int8(l))
		}
	}
	seen := make(map[int]bool, len(d.golden))
	for _, f := range d.golden {
		if f < 0 || f >= numFacts {
			return fmt.Errorf("truth: golden index %d out of range", f)
		}
		if seen[f] {
			return fmt.Errorf("truth: golden index %d duplicated", f)
		}
		seen[f] = true
	}
	return nil
}
