package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"corroborate/internal/fault"
	"corroborate/internal/truth"
)

// middrainWorld builds a deterministic six-batch world — enough batches
// that a checkpoint can land at every "partially drained" cut point.
func middrainWorld(t *testing.T) [][]BatchVote {
	t.Helper()
	d := randomDataset(57, 7, 180)
	return splitByFact(d, 6)
}

// uninterruptedCheckpoint is the oracle: a fresh stream fed all batches in
// one run, serialized once at the end.
func uninterruptedCheckpoint(t *testing.T, shards int, batches [][]BatchVote) []byte {
	t.Helper()
	ss := NewShardedStream(shards)
	feed(t, ss, batches)
	var buf bytes.Buffer
	if err := ss.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreStreamMidDrainByteIdentity: a drain interrupted after any
// partial batch flush leaves a checkpoint holding a strict prefix of the
// stream. Restoring that checkpoint and feeding the remaining batches must
// reproduce the uninterrupted run byte-for-byte — resume is a perfect
// continuation, at every possible cut point.
func TestRestoreStreamMidDrainByteIdentity(t *testing.T) {
	batches := middrainWorld(t)
	want := uninterruptedCheckpoint(t, 1, batches)

	for cut := 1; cut < len(batches); cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			// The interrupted run: cut batches flushed, checkpoint written,
			// process dies.
			first := NewShardedStream(1)
			feed(t, first, batches[:cut])
			var mid bytes.Buffer
			if err := first.Checkpoint(&mid); err != nil {
				t.Fatal(err)
			}

			// Restart from the mid-drain checkpoint and finish the stream.
			resumed, err := RestoreShardedStream(bytes.NewReader(mid.Bytes()), 1)
			if err != nil {
				t.Fatalf("restoring mid-drain checkpoint: %v", err)
			}
			if got := resumed.Batches(); got != cut {
				t.Fatalf("resumed at batch %d, checkpoint held %d", got, cut)
			}
			feed(t, resumed, batches[cut:])

			var got bytes.Buffer
			if err := resumed.Checkpoint(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("resume from cut %d diverges from the uninterrupted run", cut)
			}
		})
	}
}

// TestRestoreShardedStreamMidDrainByteIdentity: the same contract through
// RestoreShardedStream, including resuming with a DIFFERENT shard count
// than the interrupted run used — the checkpoint envelope is shard-layout
// free, so drain, re-shard, and resume must all commute.
func TestRestoreShardedStreamMidDrainByteIdentity(t *testing.T) {
	batches := middrainWorld(t)
	want := uninterruptedCheckpoint(t, 1, batches)

	for _, tc := range []struct{ before, after int }{
		{1, 4}, {4, 1}, {3, 3}, {2, 5},
	} {
		for cut := 1; cut < len(batches); cut += 2 {
			name := fmt.Sprintf("shards=%d-%d/cut=%d", tc.before, tc.after, cut)
			t.Run(name, func(t *testing.T) {
				first := NewShardedStream(tc.before)
				feed(t, first, batches[:cut])
				var mid bytes.Buffer
				if err := first.Checkpoint(&mid); err != nil {
					t.Fatal(err)
				}

				resumed, err := RestoreShardedStream(bytes.NewReader(mid.Bytes()), tc.after)
				if err != nil {
					t.Fatalf("restoring mid-drain checkpoint: %v", err)
				}
				if got := resumed.Batches(); got != cut {
					t.Fatalf("resumed at batch %d, checkpoint held %d", got, cut)
				}
				feed(t, resumed, batches[cut:])

				var got bytes.Buffer
				if err := resumed.Checkpoint(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("resume (%d->%d shards, cut %d) diverges from the uninterrupted run", tc.before, tc.after, cut)
				}
			})
		}
	}
}

// prefixCheckpoints is the oracle of the base+log battery: entry k is the
// full checkpoint of an uninterrupted one-shard stream with the given
// trust decay after batches[:k].
func prefixCheckpoints(t *testing.T, batches [][]BatchVote, decay float64) [][]byte {
	t.Helper()
	st := decayedStream(t, 1, decay)
	out := [][]byte{checkpointBytes(t, st)}
	for _, b := range batches {
		feed(t, st, [][]BatchVote{b})
		out = append(out, checkpointBytes(t, st))
	}
	return out
}

func decayedStream(t *testing.T, shards int, decay float64) *Stream {
	t.Helper()
	st := NewShardedStream(shards)
	if err := st.SetTrustDecay(decay); err != nil {
		t.Fatal(err)
	}
	return st
}

// commitThrough drives a sink-backed stream through clean commits of
// batches[:k], arms a fault, and commits batch k. It returns the sink and
// that last commit's error.
func commitThrough(t *testing.T, path string, ifs *fault.InjectFS, batches [][]BatchVote, k, shards int, decay float64, arm func(*fault.InjectFS)) (*CheckpointSink, error) {
	t.Helper()
	sink := &CheckpointSink{Path: path, FS: ifs, Sleeper: fault.NewRecorder()}
	st := decayedStream(t, shards, decay)
	for i := 0; i < k; i++ {
		feed(t, st, batches[i:i+1])
		if err := sink.Commit(st); err != nil {
			t.Fatalf("clean commit of batch %d: %v", i, err)
		}
	}
	arm(ifs)
	feed(t, st, batches[k:k+1])
	return sink, sink.Commit(st)
}

// requireResume restores the files at path through a fresh sink with the
// given shard count, requires exactly the uninterrupted stream after want
// batches and no leftover temp file, then commits the remaining batches
// through that sink and requires the final restore to equal the
// uninterrupted run. compactFirst asserts that the first of those commits
// rewrites the base instead of appending.
func requireResume(t *testing.T, path string, batches [][]BatchVote, prefixes [][]byte, shards, want int, decay float64, compactFirst bool) {
	t.Helper()
	sink := NewCheckpointSink(path)
	st, report, err := sink.Restore(shards)
	if err != nil || report.QuarantinedPath != "" || report.QuarantinedLog != "" || report.Resumed != (want > 0) {
		t.Fatalf("restore: report %+v, err %v (want %d batches)", report, err, want)
	}
	if !report.Resumed {
		// A fresh start takes its decay from configuration, as a world does.
		if err := st.SetTrustDecay(decay); err != nil {
			t.Fatal(err)
		}
	}
	if got := checkpointBytes(t, st); !bytes.Equal(got, prefixes[want]) {
		t.Fatalf("restored state differs from the uninterrupted stream after %d batches", want)
	}
	if temps, _ := filepath.Glob(path + ".tmp-*"); len(temps) != 0 {
		t.Fatalf("temp files left after restore: %v", temps)
	}
	for i := want; i < len(batches); i++ {
		feed(t, st, batches[i:i+1])
		if err := sink.Commit(st); err != nil {
			t.Fatalf("resumed commit of batch %d: %v", i, err)
		}
		if i == want && compactFirst && (sink.Compactions() != 1 || sink.LogBytes() != 0) {
			t.Fatalf("first commit after a torn log appended (compactions %d, log %d bytes)", sink.Compactions(), sink.LogBytes())
		}
	}
	final, report, err := NewCheckpointSink(path).Restore(shards)
	if err != nil || !report.Resumed {
		t.Fatalf("final restore: report %+v, err %v", report, err)
	}
	if got := checkpointBytes(t, final); !bytes.Equal(got, prefixes[len(batches)]) {
		t.Fatal("resumed run diverges from the uninterrupted run")
	}
}

// TestRestoreBaseAndLogByteIdentity: a tenant's durable state is a base
// checkpoint plus a log of per-batch records. At every cut point of that
// protocol — after each append or compaction, inside a torn append, after
// a failed log fsync, and on both sides of a compaction's rename and of
// its log reset — restoring the files must give exactly the stream a full
// checkpoint of the uninterrupted run holds at the same batch, with and
// without trust decay and across a shard-count change; and the restored
// stream must continue to the uninterrupted run's final bytes.
func TestRestoreBaseAndLogByteIdentity(t *testing.T) {
	// Every source of the middrain world votes in every batch; one that
	// votes only in the first and one that joins in the fourth make
	// records carry new sources mid-stream and — with decay, which moves
	// every source each batch — sources that did not vote.
	batches := middrainWorld(t)
	batches[0] = append(batches[0], BatchVote{Fact: batches[0][0].Fact, Source: "first-only", Vote: truth.Affirm})
	batches[3] = append(batches[3], BatchVote{Fact: batches[3][0].Fact, Source: "joins-late", Vote: truth.Deny})
	for _, decay := range []float64{0, 0.8} {
		prefixes := prefixCheckpoints(t, batches, decay)
		for _, tc := range []struct{ before, after int }{{1, 4}, {4, 1}} {
			name := fmt.Sprintf("decay=%v/shards=%d-%d", decay, tc.before, tc.after)
			t.Run(name, func(t *testing.T) {
				// Clean run: restore after every commit, and learn which
				// commits compacted.
				path := filepath.Join(t.TempDir(), "state.json")
				sink := NewCheckpointSink(path)
				st := decayedStream(t, tc.before, decay)
				compacted := make([]bool, len(batches))
				appends := 0
				for k := range batches {
					before := sink.Compactions()
					feed(t, st, batches[k:k+1])
					if err := sink.Commit(st); err != nil {
						t.Fatal(err)
					}
					compacted[k] = sink.Compactions() > before
					if !compacted[k] {
						appends++
					}
					restored, report, err := NewCheckpointSink(path).Restore(tc.after)
					if err != nil || !report.Resumed {
						t.Fatalf("after batch %d: report %+v, err %v", k, report, err)
					}
					if got := checkpointBytes(t, restored); !bytes.Equal(got, prefixes[k+1]) {
						t.Fatalf("after batch %d (compacted %v): base+log restore differs from the full checkpoint", k, compacted[k])
					}
				}
				if !compacted[0] || appends == 0 || appends == len(batches)-1 {
					t.Fatalf("world exercises too little of the protocol: compactions at %v", compacted)
				}

				type cut struct {
					name         string
					arm          func(*fault.InjectFS)
					fails        bool
					want         int // batches restored, given the cut at batch k
					compactFirst bool
				}
				for k := range batches {
					var cuts []cut
					if compacted[k] {
						cuts = []cut{
							{"rename-before", func(f *fault.InjectFS) { f.CrashAtRename(false) }, true, k, false},
							{"rename-after", func(f *fault.InjectFS) { f.CrashAtRename(true) }, true, k + 1, false},
							{"reset-before", func(f *fault.InjectFS) { f.CrashAtRemove(false) }, true, k + 1, false},
							{"reset-after", func(f *fault.InjectFS) { f.CrashAtRemove(true) }, k > 0, k + 1, false},
						}
					} else {
						cuts = []cut{
							{"torn-append", func(f *fault.InjectFS) { f.TearWrites(1) }, true, k, true},
							{"failed-log-fsync", func(f *fault.InjectFS) { f.FailSyncs(1) }, false, k + 1, false},
						}
					}
					for _, c := range cuts {
						t.Run(fmt.Sprintf("batch=%d/%s", k, c.name), func(t *testing.T) {
							path := filepath.Join(t.TempDir(), "state.json")
							ifs := fault.NewInjectFS(fault.OS(), int64(k))
							sink, err := commitThrough(t, path, ifs, batches, k, tc.before, decay, c.arm)
							if (err != nil) != c.fails {
								t.Fatalf("commit = %v, want failure %v", err, c.fails)
							}
							if c.name == "failed-log-fsync" {
								want := int64(1) // the retry's
								for _, done := range compacted[:k] {
									if done {
										want++
									}
								}
								if got := sink.Compactions(); got != want {
									t.Fatalf("failed log fsync: %d compactions, want %d", got, want)
								}
							}
							requireResume(t, path, batches, prefixes, tc.after, c.want, decay, c.compactFirst)
						})
					}
				}
			})
		}
	}
}
