package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sort"
	"sync"

	"corroborate/internal/fault"
	"corroborate/internal/score"
	"corroborate/internal/truth"
)

// Stream is the online form of the incremental algorithm: votes arrive in
// batches (e.g. one crawl increment at a time), each batch is corroborated
// under the trust state accumulated from every previous batch, and the
// multi-value trust carries across batches. This is the natural production
// deployment of Definition 1 — the paper's algorithm already evaluates
// facts at distinct time points with the trust current at that point, so
// the only extension here is letting the caller, rather than the selector,
// define the batches' content while the selector still orders work inside
// each batch.
//
// Each batch is one macro time point: every fact group of the batch is
// corroborated under the trust at batch entry (Definition 1's σi(S) — all
// facts selected at ti are evaluated with the trust of ti), and all
// outcomes are absorbed afterwards in the deterministic group order. The
// decision function of a group is therefore a pure function of (votes,
// batch-entry trust), which is what lets a stream with several shards
// corroborate signature shards concurrently and still merge to a
// byte-identical state: the shard count never changes a byte of output
// (see sharded.go).
//
// Concurrency contract: a Stream is safe for concurrent use. AddBatch,
// Trust, Decided, Batches, and Checkpoint serialize on an internal mutex;
// concurrent AddBatch calls are applied in lock-acquisition order, so
// determinism across runs is up to the caller's batch ordering.
//
// AddBatch is atomic: a rejected batch — whether refused by validation,
// cancelled through its context, or aborted by a contained group panic —
// leaves the stream untouched: no sources are interned, no trust moves,
// no facts are decided. The stream therefore always sits at a batch
// boundary, which is exactly the state Checkpoint snapshots; cancellation
// can never produce a half-absorbed, un-checkpointable trust state.
type Stream struct {
	// symtab is the stream's source symbol table (truth.Interner): names
	// live here once, and every other structure — trust accumulators, vote
	// columns, checkpoints — moves dense uint32 IDs. Interning order defines
	// vote signatures, so the table is append-only except for the
	// atomic-batch rollback, which truncates the IDs a rejected batch
	// created before anything else saw them.
	mu       sync.Mutex
	symtab   *truth.Interner
	state    *trustState
	initDone bool

	// decided accumulates every fact this stream has corroborated.
	decided []StreamFact

	// trust is the trust each batch's groups are decided under, indexed by
	// source ID. A batch refreshes only its own voters' entries, so the
	// rest may be stale; it grows with the symbol table and is not part of
	// the stream's state.
	trust []float64

	// last describes the newest batch for its checkpoint-log record
	// (batchRecord); it is not part of the stream's state.
	last batchDelta

	// decay is the per-batch trust-decay factor λ; 0 means disabled (the
	// default, and bit-identical to the pre-decay engine). See
	// SetTrustDecay.
	decay float64

	// panics is the fault-injection hook for the robustness battery; nil
	// (the default) costs one pointer check per decided group.
	panics *fault.Panics

	// shards is how many signature shards a batch's groups fan out
	// across; 1 decides every batch sequentially.
	shards int
}

// batchDelta is what one batch changed beyond the facts it decided: the
// sources it interned and the sources whose accumulators it moved.
type batchDelta struct {
	// end is the batch count right after the batch; 0 means no batch has
	// run since the stream was built or restored.
	end int
	// sources is the symbol-table size before the batch: IDs from here on
	// were interned by it.
	sources int
	// voters are the ascending IDs of the sources that voted in the batch
	// — without trust decay, exactly the sources whose accumulators moved.
	voters []uint32
	// facts is the index in decided of the batch's first fact.
	facts int
}

// GroupPanicError reports a panic captured while deciding one fact group.
// A panicking shard worker degrades the batch to the sequential path; the
// error only reaches the caller when the sequential retry panics too — a
// deterministic bug in the decision function rather than a transient
// scheduling casualty. The batch is rejected atomically either way.
type GroupPanicError struct {
	// Signature is the vote signature of the group whose decision panicked.
	Signature string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *GroupPanicError) Error() string {
	return fmt.Sprintf("core: panic deciding fact group %q: %v", e.Signature, e.Value)
}

// InjectPanics installs a fault.Panics injector whose sites are keyed by
// fact-group vote signature; nil disarms. Tests use it to prove the
// degradation ladder; production streams leave it unset.
func (st *Stream) InjectPanics(p *fault.Panics) {
	st.mu.Lock()
	st.panics = p
	st.mu.Unlock()
}

// StreamFact is one corroborated fact of a stream.
type StreamFact struct {
	// Name is the caller's fact identifier.
	Name string
	// Batch is the index of the batch that carried the fact.
	Batch int
	// Probability is the corroborated probability at evaluation time.
	Probability float64
	// Prediction is the Eq. 2 decision.
	Prediction truth.Label
}

// BatchVote is one vote of an incoming batch.
type BatchVote struct {
	Fact   string
	Source string
	Vote   truth.Vote
}

// streamDefaultTrust is the trust every stream gives a source before it
// has evaluated a fact: the paper's default of 0.9, as in the scale
// profile. Checkpoints record it, and a restore refuses any other value.
const streamDefaultTrust = 0.9

// NewShardedStream returns an empty stream that decides each batch's
// groups across the given number of shards. Shard counts below 1 are
// clamped to 1 (a sequential stream). Every stream runs the scale profile
// (NewScale), which suits open-ended streams: sources start at the
// paper's default trust of 0.9, and outcomes are absorbed normalized.
func NewShardedStream(shards int) *Stream {
	if shards < 1 {
		shards = 1
	}
	return &Stream{symtab: truth.NewInterner(), shards: shards}
}

// Shards returns the configured shard count.
func (st *Stream) Shards() int { return st.shards }

// SetTrustDecay enables exponential trust decay with per-batch factor
// lambda: before each batch's outcomes are absorbed, every source's
// accumulated credit and evaluation mass are scaled by lambda, so evidence
// from k batches ago carries weight lambda^k and a drifting source's stale
// reputation washes out instead of dominating forever. Because credit and
// mass scale together, decay never changes the decisions of the batch it
// ages past — only the weight of history against the next batch — which
// keeps decisions a pure function of (votes, batch-entry trust) and
// preserves the sharding and rollback contracts unchanged.
//
// lambda must lie in [0, 1]: values in (0, 1) enable decay, while 0 and 1
// both mean "no decay" (1 is the identity scale; 0 is the conventional
// off switch) and leave the stream bit-identical to the pre-decay engine.
// The factor is part of the stream's identity: it is fixed by the first
// batch and recorded in checkpoints. Before the first batch SetTrustDecay
// sets it; after that — on a stream restored from a checkpoint, say — it
// accepts only the factor already in force and refuses any other, since
// a silent change would fork the stream's history.
func (st *Stream) SetTrustDecay(lambda float64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if math.IsNaN(lambda) || lambda < 0 || lambda > 1 {
		return fmt.Errorf("core: trust decay %v out of [0, 1]", lambda)
	}
	//lint:ignore floatexact 1 is the exact identity-scale sentinel; values near 1 are legitimate slow decay factors and must not be swallowed
	if lambda == 1 {
		lambda = 0 // identity scale: normalize to the canonical off value
	}
	if st.initDone {
		//lint:ignore floatexact checkpoints round-trip the factor bit-exactly; any difference is a real configuration conflict
		if lambda != st.decay {
			return fmt.Errorf("core: stream carries trust decay %v since its first batch; %v conflicts", st.decay, lambda)
		}
		return nil
	}
	st.decay = lambda
	return nil
}

// TrustDecay reports the configured per-batch decay factor, 0 if disabled.
func (st *Stream) TrustDecay() float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.decay
}

// Trust returns the current trust of every source seen so far, keyed by
// source name.
func (st *Stream) Trust() map[string]float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]float64, st.symtab.Len())
	for i := 0; i < st.symtab.Len(); i++ {
		out[st.symtab.Name(uint32(i))] = st.state.trust(i)
	}
	return out
}

// Decided returns every fact corroborated so far, in evaluation order. The
// returned slice is a point-in-time snapshot sharing its backing array with
// the stream; callers must not modify it.
func (st *Stream) Decided() []StreamFact {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.decided
}

// Batches returns how many batches have been processed.
func (st *Stream) Batches() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.batchesLocked()
}

func (st *Stream) batchesLocked() int {
	if len(st.decided) == 0 {
		return 0
	}
	return st.decided[len(st.decided)-1].Batch + 1
}

// voteKey identifies one (fact, source) slot of a batch for duplicate
// detection.
type voteKey struct {
	fact, source string
}

// validateBatch rejects batches the stream cannot corroborate coherently:
// empty batches, votes carrying an unknown truth value (anything but T/F),
// and duplicate votes — two statements by the same source about the same
// fact in one batch would silently shadow each other inside the vote
// matrix, so they are surfaced as caller errors instead.
func validateBatch(votes []BatchVote) error {
	if len(votes) == 0 {
		return fmt.Errorf("core: empty batch")
	}
	seen := make(map[voteKey]struct{}, len(votes))
	for _, v := range votes {
		if !v.Vote.Valid() || v.Vote == truth.Absent {
			return fmt.Errorf("core: batch vote on %q by %q carries unknown truth value %v", v.Fact, v.Source, v.Vote)
		}
		k := voteKey{fact: v.Fact, source: v.Source}
		if _, dup := seen[k]; dup {
			return fmt.Errorf("core: duplicate vote on %q by %q in batch", v.Fact, v.Source)
		}
		seen[k] = struct{}{}
	}
	return nil
}

// AddBatch corroborates one batch of votes under the trust accumulated
// from all earlier batches and folds the outcomes back in. Facts are
// grouped by vote signature, decided under the batch-entry trust, and
// absorbed negative-side-first, like one macro time point of the
// incremental algorithm. It returns the batch's corroborated facts in
// evaluation order.
func (st *Stream) AddBatch(votes []BatchVote) ([]StreamFact, error) {
	return st.AddBatchContext(context.Background(), votes)
}

// AddBatchContext is AddBatch under a context: cancellation or deadline
// expiry rejects the batch atomically — the stream stays at the previous
// batch boundary, valid and checkpointable — and returns an error wrapping
// ctx.Err(). The context is consulted before corroboration starts, between
// group decisions, and once more before outcomes are absorbed; absorption
// itself always runs to completion so no partial trust update can exist.
func (st *Stream) AddBatchContext(ctx context.Context, votes []BatchVote) ([]StreamFact, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.addBatchLocked(ctx, votes)
}

// addBatchLocked is the batch pipeline: validate, intern, group, decide
// every group under the frozen batch-entry trust (fanning out across
// signature shards when the stream has more than one), then merge the
// outcomes in the global sorted group order. The merge order — and with it
// every floating-point accumulation — is independent of the shard count
// and of goroutine scheduling, which is what keeps the output of any shard
// count byte-identical to the sequential stream's.
//
// Failures after validation (cancellation, an uncontainable group panic)
// roll back the source interning they may have caused, restoring the
// stream bit-for-bit to its pre-batch state.
func (st *Stream) addBatchLocked(ctx context.Context, votes []BatchVote) ([]StreamFact, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: batch rejected: %w", err)
	}
	if err := validateBatch(votes); err != nil {
		return nil, err
	}
	// Snapshot for rollback: everything the pipeline mutates before the
	// point of no return is the symbol table and the trust-state arrays.
	preSources, preInit := st.symtab.Len(), st.initDone

	post, voters := st.postBatch(votes)

	if !st.initDone {
		st.state = newTrustState(0, streamDefaultTrust)
		if st.decay != 0 {
			st.state.enableDecay(st.decay)
		}
		st.initDone = true
	}
	// Grow the trust state for newly seen sources.
	for len(st.state.credit) < st.symtab.Len() {
		st.state.credit = append(st.state.credit, 0)
		st.state.count = append(st.state.count, 0)
		if st.state.fcount != nil {
			st.state.fcount = append(st.state.fcount, 0)
		}
	}
	// The batch-entry trust of this batch's voters; every other entry of
	// st.trust may be stale, and no group of the batch reads one.
	if n := st.symtab.Len(); len(st.trust) < n {
		st.trust = slices.Grow(st.trust, n-len(st.trust))[:n]
	}
	for _, s := range voters {
		st.trust[s] = st.state.trust(int(s))
	}

	groups := groupPostings(len(post.names), post.votesOn)
	raw, final, err := st.decideGroups(ctx, groups, st.trust)
	if err == nil {
		// Point of no return: beyond this check the outcomes are absorbed
		// unconditionally, landing the stream on the next batch boundary.
		err = ctx.Err()
	}
	if err != nil {
		st.rollbackBatch(preSources, preInit)
		if _, isPanic := err.(*GroupPanicError); !isPanic {
			err = fmt.Errorf("core: batch cancelled: %w", err)
		}
		return nil, err
	}

	// Past the point of no return: age prior batches' evidence before this
	// batch's outcomes are absorbed. Decay scales credit and mass together,
	// so the trust the groups were decided under is unchanged — it only
	// rebalances history against the absorption below — and running it
	// after the rollback window keeps batch rejection a pure truncation.
	st.state.applyDecay()

	// Order: confident negatives first, then positives by size — one
	// macro time point of the scale profile over the batch's groups. The
	// ranking uses the groups' raw probabilities under the batch-entry
	// trust; protection adjustments only affect the decided value.
	sort.Slice(groups, func(i, j int) bool {
		pi, pj := raw[groups[i].ord], raw[groups[j].ord]
		ni, nj := pi <= truth.Threshold, pj <= truth.Threshold
		if ni != nj {
			return ni
		}
		if ni {
			if pi != pj {
				return pi < pj
			}
			return groups[i].signature < groups[j].signature
		}
		if groups[i].size() != groups[j].size() {
			return groups[i].size() > groups[j].size()
		}
		return groups[i].signature < groups[j].signature
	})

	batch := st.batchesLocked()
	st.last = batchDelta{end: batch + 1, sources: preSources, voters: voters, facts: len(st.decided)}
	var out []StreamFact
	for _, g := range groups {
		p := final[g.ord]
		facts := g.take(g.size())
		st.state.absorb(g.votes, score.Normalize(p), len(facts))
		for _, f := range facts {
			sf := StreamFact{
				Name:        post.names[f],
				Batch:       batch,
				Probability: p,
				Prediction:  truth.LabelOf(p, truth.Threshold),
			}
			out = append(out, sf)
			st.decided = append(st.decided, sf)
		}
	}
	return out, nil
}

// batchPostings is one batch's votes in the fact-major CSR layout of
// truth.Dataset, with global source IDs: fact f's posting list is
// arena[starts[f]:starts[f+1]], ordered by source ID, and names[f] is its
// name. Facts are numbered in first-appearance order, as truth.Builder
// numbers them, so the batch groups and signs exactly as a Dataset of the
// same votes over the whole symbol table would, at a cost that depends on
// the batch alone.
type batchPostings struct {
	names  []string
	starts []int
	arena  []truth.SourceVote
}

func (p *batchPostings) votesOn(f int) []truth.SourceVote {
	return p.arena[p.starts[f]:p.starts[f+1]]
}

// postBatch interns every vote's source into the symbol table and lays
// the batch out as postings. It also returns the batch's voters: the
// ascending IDs of the sources that voted in it. validateBatch has refused
// repeated (fact, source) pairs and Absent votes, so a posting list holds
// exactly the T/F votes Dataset.VotesOnFact would, and no last-write-wins
// pass is needed.
func (st *Stream) postBatch(votes []BatchVote) (p batchPostings, voters []uint32) {
	factOf := make(map[string]int, len(votes))
	facts := make([]int, len(votes))
	ids := make([]uint32, len(votes))
	p.names = make([]string, 0, len(votes))
	for i, v := range votes {
		f, ok := factOf[v.Fact]
		if !ok {
			f = len(p.names)
			factOf[v.Fact] = f
			p.names = append(p.names, v.Fact)
		}
		facts[i] = f
		ids[i] = st.symtab.Intern(v.Source)
	}
	// Counting sort by fact. After the prefix sums starts[f] is where fact
	// f's segment ends; filling each segment back to front walks starts[f]
	// down to where it begins.
	n := len(p.names)
	p.starts = make([]int, n+1)
	for _, f := range facts {
		p.starts[f]++
	}
	for f := 1; f < n; f++ {
		p.starts[f] += p.starts[f-1]
	}
	p.starts[n] = len(votes)
	p.arena = make([]truth.SourceVote, len(votes))
	for i := len(votes) - 1; i >= 0; i-- {
		f := facts[i]
		p.starts[f]--
		p.arena[p.starts[f]] = truth.SourceVote{Source: int(ids[i]), Vote: votes[i].Vote}
	}
	for f := 0; f < n; f++ {
		slices.SortFunc(p.votesOn(f), func(a, b truth.SourceVote) int { return cmp.Compare(a.Source, b.Source) })
	}
	slices.Sort(ids)
	return p, slices.Compact(ids)
}

// decideGroup corroborates one group under the frozen batch-entry trust.
// It returns the raw Eq. 5 probability (the ordering key) and the decided
// probability after the scale profile's protections. The function is pure
// in (g, trust) — it never reads mutable stream state — so shards may call
// it concurrently. It reads trust[sv.Source] only for the group's own
// votes, so a batch need only refresh its voters' entries of the vector.
func (st *Stream) decideGroup(g *group, trust []float64) (raw, final float64) {
	st.panics.Fire(g.signature)
	p := score.Corrob(g.votes, trust)
	raw, final = p, p
	// Backed-by-positive protection and strict tie handling, as in the
	// scale profile's batch rounds.
	if p <= truth.Threshold && !g.conflicted() && g.backedByPositive(trust) {
		final = truth.Threshold // confirmed by a positive backer
		//lint:ignore floatexact the scale profile defines a conflicted group at exactly the threshold as undecided; an epsilon band would flip near-threshold decisions
	} else if p == truth.Threshold && g.conflicted() {
		final = nextBelowThreshold
	}
	return raw, final
}

// decideGroupGuarded is decideGroup with panic containment: a panic —
// injected by the fault battery or thrown by a real bug — is recovered
// into a typed *GroupPanicError instead of unwinding the worker goroutine
// (which would kill the process: an unrecovered panic on any goroutine is
// fatal in Go).
func (st *Stream) decideGroupGuarded(g *group, trust []float64) (raw, final float64, perr *GroupPanicError) {
	defer func() {
		if v := recover(); v != nil {
			perr = &GroupPanicError{Signature: g.signature, Value: v, Stack: debug.Stack()}
		}
	}()
	raw, final = st.decideGroup(g, trust)
	return raw, final, nil
}

// rollbackBatch undoes the interning side effects of a failed batch,
// restoring the symbol table and trust-state arrays to their pre-batch
// shape. No trust values moved (absorption never ran), so truncation is a
// complete undo.
func (st *Stream) rollbackBatch(preSources int, preInit bool) {
	st.symtab.Truncate(preSources)
	if !preInit {
		st.state = nil
		st.initDone = false
		return
	}
	st.state.credit = st.state.credit[:preSources]
	st.state.count = st.state.count[:preSources]
	if st.state.fcount != nil {
		st.state.fcount = st.state.fcount[:preSources]
	}
}
