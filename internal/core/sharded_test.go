package core

import (
	"bytes"
	"fmt"
	"testing"

	"corroborate/internal/synth"
	"corroborate/internal/truth"
)

// forceStreamParallel lowers the shard fan-out threshold and pins a worker
// count so even tiny test batches exercise the concurrent path; the returned
// function restores the defaults.
func forceStreamParallel() func() {
	oldThreshold, oldWorkers := streamShardThreshold, rankWorkers
	streamShardThreshold, rankWorkers = 1, 4
	return func() { streamShardThreshold, rankWorkers = oldThreshold, oldWorkers }
}

// batchVotesOf flattens a dataset into stream votes, facts in index order.
func batchVotesOf(d *truth.Dataset) []BatchVote {
	var votes []BatchVote
	for f := 0; f < d.NumFacts(); f++ {
		for _, sv := range d.VotesOnFact(f) {
			votes = append(votes, BatchVote{
				Fact:   d.FactName(f),
				Source: d.SourceName(sv.Source),
				Vote:   sv.Vote,
			})
		}
	}
	return votes
}

// splitByFact partitions a dataset into `parts` contiguous fact ranges, one
// batch per non-empty range, keeping each fact's votes within one batch.
func splitByFact(d *truth.Dataset, parts int) [][]BatchVote {
	var batches [][]BatchVote
	per := (d.NumFacts() + parts - 1) / parts
	for lo := 0; lo < d.NumFacts(); lo += per {
		hi := lo + per
		if hi > d.NumFacts() {
			hi = d.NumFacts()
		}
		var batch []BatchVote
		for f := lo; f < hi; f++ {
			for _, sv := range d.VotesOnFact(f) {
				batch = append(batch, BatchVote{
					Fact:   d.FactName(f),
					Source: d.SourceName(sv.Source),
					Vote:   sv.Vote,
				})
			}
		}
		if len(batch) > 0 {
			batches = append(batches, batch)
		}
	}
	return batches
}

// feed pushes every batch through the stream, failing the test on error.
func feed(t *testing.T, st *Stream, batches [][]BatchVote) {
	t.Helper()
	for i, b := range batches {
		if _, err := st.AddBatch(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		requireOracleBytes(t, st)
	}
}

// requireStreamsIdentical asserts two streams hold byte-identical state:
// same decided-fact log (order, batch indices, bitwise probabilities) and
// same bitwise trust per source. No epsilon — the sharded merge is defined
// to be exact.
func requireStreamsIdentical(t *testing.T, label string, got, want *Stream) {
	t.Helper()
	g, w := got.Decided(), want.Decided()
	if len(g) != len(w) {
		t.Fatalf("%s: decided %d facts, want %d", label, len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: decided[%d] = %+v, want %+v", label, i, g[i], w[i])
		}
	}
	gt, wt := got.Trust(), want.Trust()
	if len(gt) != len(wt) {
		t.Fatalf("%s: trust over %d sources, want %d", label, len(gt), len(wt))
	}
	for name, tr := range wt {
		if gt[name] != tr {
			t.Fatalf("%s: trust[%s] = %v, want %v", label, name, gt[name], tr)
		}
	}
}

func TestNewShardedStreamClampsShards(t *testing.T) {
	for _, n := range []int{-3, 0} {
		if got := NewShardedStream(n).Shards(); got != 1 {
			t.Errorf("NewShardedStream(%d).Shards() = %d, want 1", n, got)
		}
	}
	if got := NewShardedStream(7).Shards(); got != 7 {
		t.Errorf("Shards() = %d, want 7", got)
	}
}

func TestShardOfIsStableAndInRange(t *testing.T) {
	sigs := []string{"", "a", "TT-F", "\x00\xff", "sig-with-longer-content"}
	for _, shards := range []int{1, 2, 7, 16} {
		for _, sig := range sigs {
			s := shardOf(sig, shards)
			if s < 0 || s >= shards {
				t.Fatalf("shardOf(%q, %d) = %d out of range", sig, shards, s)
			}
			if again := shardOf(sig, shards); again != s {
				t.Fatalf("shardOf(%q, %d) unstable: %d then %d", sig, shards, s, again)
			}
		}
	}
}

// TestShardedMatchesSequentialRandom is the differential battery on small
// worlds: every (shard count, batch partition) combination must reproduce
// the sequential stream bit-for-bit, with the shard pool forced on.
func TestShardedMatchesSequentialRandom(t *testing.T) {
	defer forceStreamParallel()()
	for _, seed := range []uint64{2, 17, 41} {
		d := randomDataset(seed, 6, 90)
		for _, parts := range []int{1, 3, 7} {
			batches := splitByFact(d, parts)
			ref := NewShardedStream(1)
			feed(t, ref, batches)
			for _, shards := range []int{1, 4, 7} {
				ss := NewShardedStream(shards)
				feed(t, ss, batches)
				requireStreamsIdentical(t,
					fmt.Sprintf("seed=%d parts=%d shards=%d", seed, parts, shards), ss, ref)
			}
		}
	}
}

// TestShardedRepeatedRunsIdentical: the worker pool must not leak scheduling
// into results — repeated sharded runs are bitwise equal.
func TestShardedRepeatedRunsIdentical(t *testing.T) {
	defer forceStreamParallel()()
	d := randomDataset(7, 8, 160)
	batches := splitByFact(d, 4)
	base := NewShardedStream(5)
	feed(t, base, batches)
	for i := 0; i < 3; i++ {
		again := NewShardedStream(5)
		feed(t, again, batches)
		requireStreamsIdentical(t, fmt.Sprintf("repeat %d", i), again, base)
	}
}

// TestShardedMatchesSequentialLargeWorld is the issue's acceptance
// criterion: a ≥10k-fact synthetic world, streamed in batches, must produce
// byte-identical trust maps and decided logs for shards ∈ {1, 4, 7}, and a
// mid-stream checkpoint must restore to the same final state.
func TestShardedMatchesSequentialLargeWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-fact world; skipped with -short")
	}
	w, err := synth.Generate(synth.Config{
		Facts: 10000, AccurateSources: 7, InaccurateSources: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := splitByFact(w.Dataset, 8)

	ref := NewShardedStream(1)
	var mid bytes.Buffer
	for i, b := range batches {
		if _, err := ref.AddBatch(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i == len(batches)/2-1 {
			if err := ref.Checkpoint(&mid); err != nil {
				t.Fatalf("mid-stream checkpoint: %v", err)
			}
		}
	}

	for _, shards := range []int{1, 4, 7} {
		ss := NewShardedStream(shards)
		feed(t, ss, batches)
		requireStreamsIdentical(t, fmt.Sprintf("shards=%d", shards), ss, ref)

		// Restore the sequential stream's mid-point into a sharded engine
		// and replay the tail: the continuation must land on the same final
		// state byte-for-byte.
		restored, err := RestoreShardedStream(bytes.NewReader(mid.Bytes()), shards)
		if err != nil {
			t.Fatalf("shards=%d: restore: %v", shards, err)
		}
		feed(t, restored, batches[len(batches)/2:])
		requireStreamsIdentical(t, fmt.Sprintf("shards=%d restored tail", shards), restored, ref)
	}
}

// TestShardedSingleGroupStaysSequential: below the fan-out threshold the
// sharded engine takes the sequential path; results must not depend on
// which path ran.
func TestShardedSingleGroupStaysSequential(t *testing.T) {
	d := randomDataset(13, 5, 40)
	batches := splitByFact(d, 2)
	ref := NewShardedStream(1)
	feed(t, ref, batches)
	ss := NewShardedStream(4) // default threshold: small batches stay sequential
	feed(t, ss, batches)
	requireStreamsIdentical(t, "threshold path", ss, ref)
}
