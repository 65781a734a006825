package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"corroborate/internal/truth"
)

// sameShapedBatch is batch b of a steady feed: 40 fixed-width fact names
// per batch, each voted on by 3 of the same 6 sources, in one vote pattern
// that repeats every batch — every fact affirmed by a majority, the
// dissent spread evenly over the sources. Every batch therefore decides
// the same way and every source's trust stays at the same credit/count
// ratio, so a batch decides bit-identical probabilities whatever the
// stream's age, and two records of the same batch shape differ only in
// what depends on the age itself.
func sameShapedBatch(b int) []BatchVote {
	var out []BatchVote
	for j := 0; j < 40; j++ {
		fact := fmt.Sprintf("f%07d", b*40+j)
		for k := 0; k < 3; k++ {
			vote := truth.Affirm
			if j%4 != 3 && k == j%3 {
				vote = truth.Deny
			}
			out = append(out, BatchVote{Fact: fact, Source: fmt.Sprintf("s%02d", (j+2*k)%6), Vote: vote})
		}
	}
	return out
}

// agedSink feeds a stream history same-shaped batches and commits the last
// through a fresh sink, which writes it as the base.
func agedSink(t *testing.T, history int) (*CheckpointSink, *Stream) {
	t.Helper()
	sink := NewCheckpointSink(filepath.Join(t.TempDir(), "state.json"))
	st := NewShardedStream(1)
	for b := 0; b < history; b++ {
		feed(t, st, [][]BatchVote{sameShapedBatch(b)})
	}
	if err := sink.Commit(st); err != nil {
		t.Fatal(err)
	}
	if sink.Compactions() != 1 || sink.LogBytes() != 0 {
		t.Fatalf("first commit of a fresh sink: %d compactions, %d log bytes", sink.Compactions(), sink.LogBytes())
	}
	return sink, st
}

// TestCommitCostIndependentOfHistory: the bytes one commit appends depend
// on the batch, not on how many facts the stream decided before it — the
// same batch shape appends within 1% of the same bytes after 10³ and
// after 10⁵ decided facts. What does grow is the digit count of the
// record's batch number and of the moved sources' absolute counts and
// credits: O(moved sources × log history), 2 digits each per 100×
// history. And the log is compacted exactly when it has grown to the
// base's size, never before.
func TestCommitCostIndependentOfHistory(t *testing.T) {
	appended := func(history int) []int64 {
		sink, st := agedSink(t, history)
		var sizes []int64
		for b := history; b < history+5; b++ {
			feed(t, st, [][]BatchVote{sameShapedBatch(b)})
			before := sink.LogBytes()
			if err := sink.Commit(st); err != nil {
				t.Fatal(err)
			}
			if sink.Compactions() != 1 {
				t.Fatalf("history %d: batch %d compacted a %d-byte log", history, b, before)
			}
			sizes = append(sizes, sink.LogBytes()-before)
		}
		return sizes
	}
	small, large := appended(25), appended(2500) // 10³ and 10⁵ decided facts
	for i := range small {
		if small[i] == 0 {
			t.Fatalf("commit %d appended nothing", i)
		}
		diff := float64(large[i]-small[i]) / float64(small[i])
		t.Logf("commit %d appends %d bytes after 10³ facts, %d after 10⁵ (%+.2f%%)", i, small[i], large[i], 100*diff)
		if diff <= -0.01 || diff >= 0.01 {
			t.Fatalf("commit %d: %d bytes after 10³ facts vs %d after 10⁵", i, small[i], large[i])
		}
	}

	sink, st := agedSink(t, 25)
	for b := 25; sink.Compactions() < 3; b++ {
		base, err := os.Stat(sink.Path)
		if err != nil {
			t.Fatal(err)
		}
		before, compactions := sink.LogBytes(), sink.Compactions()
		feed(t, st, [][]BatchVote{sameShapedBatch(b)})
		if err := sink.Commit(st); err != nil {
			t.Fatal(err)
		}
		if compacted := sink.Compactions() > compactions; compacted != (before >= base.Size()) {
			t.Fatalf("batch %d: compacted=%v with a %d-byte log and a %d-byte base", b, compacted, before, base.Size())
		}
	}
}
