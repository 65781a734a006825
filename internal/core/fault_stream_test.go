package core

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	driver "corroborate/internal/engine"
	"corroborate/internal/fault"
	"corroborate/internal/truth"
)

// firstBatchSignatures reproduces the group signatures addBatchLocked
// derives for a FRESH stream's first batch (sources interned in vote
// order), so tests can arm panic sites on real signatures.
func firstBatchSignatures(votes []BatchVote) []string {
	b := truth.NewBuilder()
	seen := make(map[string]int)
	for _, v := range votes {
		idx, ok := seen[v.Source]
		if !ok {
			idx = b.Source(v.Source)
			seen[v.Source] = idx
		}
		b.Vote(b.Fact(v.Fact), idx, v.Vote)
	}
	var sigs []string
	for _, g := range buildGroups(b.Build()) {
		sigs = append(sigs, g.signature)
	}
	return sigs
}

// TestWorkerPanicDegradesToSequential is the tentpole's headline property:
// a shard worker panicking mid-batch must not kill the process, and the
// degraded (sequential-retry) batch must be byte-identical to an
// undisturbed reference stream.
func TestWorkerPanicDegradesToSequential(t *testing.T) {
	defer forceStreamParallel()()
	for _, seed := range []uint64{3, 19} {
		d := randomDataset(seed, 6, 120)
		batches := splitByFact(d, 3)

		ref := NewShardedStream(1)
		feed(t, ref, batches)

		sigs := firstBatchSignatures(batches[0])
		if len(sigs) < 2 {
			t.Fatalf("seed %d: degenerate world (%d groups)", seed, len(sigs))
		}
		panics := fault.NewPanics()
		// One transient panic: fires on a shard worker, is spent by the
		// time the sequential retry decides the same group.
		panics.Arm(sigs[len(sigs)/2], 1)

		ss := NewShardedStream(4)
		ss.InjectPanics(panics)
		feed(t, ss, batches)
		requireStreamsIdentical(t, "degraded batch", ss, ref)
		if got := panics.Fired(sigs[len(sigs)/2]); got != 1 {
			t.Fatalf("injected site fired %d times, want 1 (injection did not reach a worker)", got)
		}
	}
}

// TestPersistentPanicSurfacesTypedError: when the sequential retry panics
// too, the ladder is exhausted — the caller gets a *GroupPanicError and
// the stream is untouched, down to sources the failed batch tried to
// intern.
func TestPersistentPanicSurfacesTypedError(t *testing.T) {
	defer forceStreamParallel()()
	d := randomDataset(5, 5, 80)
	batches := splitByFact(d, 2)

	ref := NewShardedStream(1)
	feed(t, ref, batches[:1])

	ss := NewShardedStream(4)
	feed(t, ss, batches[:1])
	preTrust := ss.Trust()
	preDecided := len(ss.Decided())
	var preCk bytes.Buffer
	if err := ss.Checkpoint(&preCk); err != nil {
		t.Fatal(err)
	}

	sigs := firstBatchSignatures(batches[1])
	panics := fault.NewPanics()
	panics.Arm(sigs[0], -1) // deterministic bug: panics every time
	ss.InjectPanics(panics)

	_, err := ss.AddBatch(batches[1])
	var gp *GroupPanicError
	if !errors.As(err, &gp) {
		t.Fatalf("AddBatch error = %v, want *GroupPanicError", err)
	}
	if gp.Signature != sigs[0] {
		t.Errorf("panic signature = %q, want %q", gp.Signature, sigs[0])
	}
	if _, ok := gp.Value.(fault.Injected); !ok {
		t.Errorf("panic value = %#v, want fault.Injected", gp.Value)
	}
	if len(gp.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if panics.Fired(sigs[0]) < 2 {
		t.Errorf("site fired %d times, want ≥ 2 (worker + sequential retry)", panics.Fired(sigs[0]))
	}

	// Atomicity: the failed batch left no trace.
	if got := len(ss.Decided()); got != preDecided {
		t.Fatalf("decided %d facts after failed batch, want %d", got, preDecided)
	}
	gotTrust := ss.Trust()
	if len(gotTrust) != len(preTrust) {
		t.Fatalf("failed batch interned sources: %d trust entries, want %d", len(gotTrust), len(preTrust))
	}
	for name, tr := range preTrust {
		if gotTrust[name] != tr {
			t.Fatalf("trust[%s] moved to %v from %v on a failed batch", name, gotTrust[name], tr)
		}
	}
	var postCk bytes.Buffer
	if err := ss.Checkpoint(&postCk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preCk.Bytes(), postCk.Bytes()) {
		t.Fatal("checkpoint bytes changed across a failed batch")
	}

	// Disarm and replay: the stream continues exactly where it stood.
	ss.InjectPanics(nil)
	feed(t, ss, batches[1:])
	feed(t, ref, batches[1:])
	requireStreamsIdentical(t, "post-recovery continuation", ss, ref)
}

// TestSequentialStreamPanicIsTypedAndAtomic: a plain Stream has no ladder
// below it — a panicking decision rejects the batch with the typed error,
// atomically.
func TestSequentialStreamPanicIsTypedAndAtomic(t *testing.T) {
	d := randomDataset(9, 4, 30)
	votes := batchVotesOf(d)
	sigs := firstBatchSignatures(votes)
	panics := fault.NewPanics()
	panics.Arm(sigs[0], 1)

	st := NewShardedStream(1)
	st.InjectPanics(panics)
	_, err := st.AddBatch(votes)
	var gp *GroupPanicError
	if !errors.As(err, &gp) {
		t.Fatalf("AddBatch error = %v, want *GroupPanicError", err)
	}
	if st.Batches() != 0 || len(st.Decided()) != 0 || len(st.Trust()) != 0 {
		t.Fatal("failed first batch left state behind")
	}
	// The injected panic is spent; the retry succeeds and matches a clean run.
	out, err := st.AddBatch(votes)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewShardedStream(1)
	refOut, err := ref.AddBatch(votes)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(refOut) {
		t.Fatalf("retry decided %d facts, want %d", len(out), len(refOut))
	}
	requireStreamsIdentical(t, "retry after spent panic", st, ref)
}

// countdownCtx reports cancellation after its Err has been consulted n
// times; Done/Deadline/Value delegate to Background. It gives tests a
// deterministic mid-pipeline cancellation point without goroutine timing.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(allow int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(int64(allow))
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestAddBatchContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := NewShardedStream(1)
	if _, err := st.AddBatchContext(ctx, batchVotesOf(randomDataset(2, 3, 10))); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if st.Batches() != 0 || len(st.Trust()) != 0 {
		t.Fatal("cancelled batch left state behind")
	}
}

// TestAddBatchContextMidBatchCancellation: cancellation striking between
// group decisions rejects the batch atomically; the stream remains at the
// previous batch boundary, checkpointable, and continues byte-identically
// once the pressure is gone.
func TestAddBatchContextMidBatchCancellation(t *testing.T) {
	defer forceStreamParallel()()
	d := randomDataset(11, 6, 150)
	batches := splitByFact(d, 3)

	ref := NewShardedStream(4)
	feed(t, ref, batches)

	ss := NewShardedStream(4)
	feed(t, ss, batches[:1])
	var preCk bytes.Buffer
	if err := ss.Checkpoint(&preCk); err != nil {
		t.Fatal(err)
	}

	// Allow exactly the entry check, then cancel: the decide fan-out and
	// the point-of-no-return check both see a dead context.
	ctx := newCountdownCtx(1)
	if _, err := ss.AddBatchContext(ctx, batches[1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	var postCk bytes.Buffer
	if err := ss.Checkpoint(&postCk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(preCk.Bytes(), postCk.Bytes()) {
		t.Fatal("cancelled batch changed checkpoint bytes")
	}

	// The checkpoint taken at the cancellation boundary restores and both
	// copies replay the remaining batches to the reference state.
	restored, err := RestoreShardedStream(bytes.NewReader(postCk.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, ss, batches[1:])
	feed(t, restored, batches[1:])
	requireStreamsIdentical(t, "continue after cancel", ss, ref)
	requireStreamsIdentical(t, "restored after cancel", restored, ref)
}

func TestRunContextCancellation(t *testing.T) {
	d := randomDataset(21, 6, 200)
	e := &IncEstimate{Strategy: SelectHeu}
	for _, reference := range []bool{false, true} {
		run := func(ctx context.Context) (*Run, error) {
			if reference {
				return runRef(ctx, e, d, 0)
			}
			return e.RunDetailedWith(ctx, d, driver.Options{})
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("reference=%v: pre-cancelled error = %v, want context.Canceled", reference, err)
		}

		// Cancel at a later round boundary: the loop checks once per round.
		if _, err := run(newCountdownCtx(2)); !errors.Is(err, context.Canceled) {
			t.Fatalf("reference=%v: mid-run error = %v, want context.Canceled", reference, err)
		}

		// An unpressured context changes nothing.
		got, err := run(context.Background())
		if err != nil {
			t.Fatalf("reference=%v: %v", reference, err)
		}
		base, err := run(context.Background())
		if err != nil {
			t.Fatalf("reference=%v: %v", reference, err)
		}
		if len(got.Trajectory) != len(base.Trajectory) {
			t.Fatalf("reference=%v: context run took %d rounds, plain run %d",
				reference, len(got.Trajectory), len(base.Trajectory))
		}
	}
}
