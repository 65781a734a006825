package serve

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"corroborate/internal/core"
	"corroborate/internal/fault"
	"corroborate/internal/synth"
)

// scenarioBatches renders a seeded synthetic scenario as ingest batches —
// the same worlds the robustness suite replays, so the serving tests load
// realistic vote streams rather than toy fixtures.
func scenarioBatches(t *testing.T, n, facts int, seed int64) [][]core.BatchVote {
	t.Helper()
	w, err := synth.GenerateScenario(synth.ScenarioConfig{
		Batches: n, FactsPerBatch: facts, HonestSources: 6, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]core.BatchVote, n)
	for i, b := range w.Batches {
		for _, v := range b.Votes {
			out[i] = append(out[i], core.BatchVote{Fact: v.Fact, Source: v.Source, Vote: v.Vote})
		}
	}
	return out
}

// referenceCheckpoint feeds batches to a fresh stream and returns its
// checkpoint bytes — the byte-identity oracle for every drain/restart
// test.
func referenceCheckpoint(t *testing.T, shards int, batches [][]core.BatchVote) []byte {
	t.Helper()
	st := core.NewShardedStream(shards)
	for i, votes := range batches {
		if _, err := st.AddBatch(votes); err != nil {
			t.Fatalf("reference batch %d: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if err := st.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// asyncIngest submits an ingest on its own goroutine and returns the
// result channel.
func asyncIngest(w *World, votes []core.BatchVote) chan error {
	done := make(chan error, 1)
	go func() {
		_, err := w.Ingest(context.Background(), votes)
		done <- err
	}()
	return done
}

func TestWorldIngestAcksDurably(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	batches := scenarioBatches(t, 4, 6, 11)

	w, report, err := OpenWorld(WorldConfig{Name: "t", Shards: 3, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if report.Resumed || report.QuarantinedPath != "" {
		t.Fatalf("fresh open reported %+v", report)
	}
	for i, votes := range batches {
		res, err := w.Ingest(context.Background(), votes)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if res.Batch != i {
			t.Fatalf("batch %d acknowledged as %d", i, res.Batch)
		}
		// The acknowledgment contract: the batch is already on disk. A
		// second sink restores the live tenant's base and log, which must
		// hold exactly the stream an uninterrupted run has at this batch.
		st, report, err := core.NewCheckpointSink(path).Restore(1)
		if err != nil || !report.Resumed {
			t.Fatalf("after batch %d: restore = %+v, %v", i, report, err)
		}
		var got bytes.Buffer
		if err := st.Checkpoint(&got); err != nil {
			t.Fatal(err)
		}
		if want := referenceCheckpoint(t, 3, batches[:i+1]); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("restored state after batch %d differs from the uninterrupted reference", i)
		}
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceCheckpoint(t, 3, batches); !bytes.Equal(got, want) {
		t.Fatal("drained checkpoint differs from uninterrupted reference")
	}
}

func TestWorldSnapshotConsistentWithAcks(t *testing.T) {
	batches := scenarioBatches(t, 3, 5, 7)
	w, _, err := OpenWorld(WorldConfig{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.Drain(); err != nil {
			t.Fatal(err)
		}
	}()
	if snap := w.Snapshot(); snap.Batches != 0 || len(snap.Facts) != 0 {
		t.Fatalf("fresh world snapshot %+v", snap)
	}
	total := 0
	for i, votes := range batches {
		res, err := w.Ingest(context.Background(), votes)
		if err != nil {
			t.Fatal(err)
		}
		total += len(res.Facts)
		snap := w.Snapshot()
		if snap.Batches != i+1 {
			t.Fatalf("snapshot after batch %d reports %d batches", i, snap.Batches)
		}
		if len(snap.Facts) != total {
			t.Fatalf("snapshot after batch %d holds %d facts, want %d", i, len(snap.Facts), total)
		}
		if len(snap.Trust) == 0 {
			t.Fatal("snapshot carries no trust")
		}
	}
}

// TestQueueFullAdmission drives the admission bound deterministically: the
// consumer is held at the gate, the queue is filled exactly to capacity,
// and the next ingest must be refused with ErrQueueFull while every
// admitted batch is still acknowledged after release — admission control
// sheds load without dropping anything it accepted.
func TestQueueFullAdmission(t *testing.T) {
	const depth = 2
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	w, _, err := OpenWorld(WorldConfig{
		Name: "t", QueueDepth: depth,
		Gate: func() { entered <- struct{}{}; <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := scenarioBatches(t, depth+2, 4, 3)

	// First batch: dequeued by the consumer, held at the gate.
	first := asyncIngest(w, batches[0])
	<-entered
	// Fill the queue to capacity behind it.
	var queued []chan error
	for i := 1; i <= depth; i++ {
		queued = append(queued, asyncIngest(w, batches[i]))
	}
	waitFor(t, func() bool { return w.QueueDepth() == depth })

	// The bound: one more is refused, and refusal is immediate (no
	// waiting on the full queue).
	if _, err := w.Ingest(context.Background(), batches[depth+1]); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("ingest on full queue = %v, want ErrQueueFull", err)
	}
	if got := w.m.rejectedQueueFull.Load(); got != 1 {
		t.Fatalf("rejectedQueueFull = %d", got)
	}

	// Release the consumer: every admitted batch must be acknowledged.
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("held batch: %v", err)
	}
	for i, ch := range queued {
		if err := <-ch; err != nil {
			t.Fatalf("queued batch %d: %v", i+1, err)
		}
	}
	if snap := w.Snapshot(); snap.Batches != depth+1 {
		t.Fatalf("stream holds %d batches, want %d", snap.Batches, depth+1)
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainUnderLoadByteIdentity is the headline drain test: drain begins
// while admitted batches are still queued; they must all flush through the
// acknowledged path, later ingests must be refused, and the final
// checkpoint must be byte-identical to an undrained reference run over the
// same admitted batches.
func TestDrainUnderLoadByteIdentity(t *testing.T) {
	const n = 5 // 1 held at the gate + (n-1) queued: the queue is FULL
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	batches := scenarioBatches(t, n+1, 6, 23)

	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	w, _, err := OpenWorld(WorldConfig{
		Name: "t", Shards: 2, QueueDepth: n - 1, CheckpointPath: path,
		Gate: func() { entered <- struct{}{}; <-release },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Admit n batches in a deterministic order (concurrent submitters
	// would race for queue slots, and byte-identity vs the reference run
	// requires the same batch order): one held at the gate, then n-1
	// filling the queue one by one, so the probe below can never be
	// admitted while the consumer is held.
	var acks []chan error
	acks = append(acks, asyncIngest(w, batches[0]))
	<-entered
	for i := 1; i < n; i++ {
		acks = append(acks, asyncIngest(w, batches[i]))
		depth := i
		waitFor(t, func() bool { return w.QueueDepth() == depth })
	}

	// Drain under load: admission closes immediately, the queue flushes.
	// Until the drain goroutine runs, the probe bounces off the full
	// queue (429-class); once drain begins it must turn ErrDraining.
	drained := make(chan error, 1)
	go func() { drained <- w.Drain() }()
	waitFor(t, func() bool {
		_, err := w.Ingest(context.Background(), batches[n])
		return errors.Is(err, ErrDraining)
	})

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, ch := range acks {
		if err := <-ch; err != nil {
			t.Fatalf("admitted batch %d not acknowledged through drain: %v", i, err)
		}
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceCheckpoint(t, 2, batches[:n]); !bytes.Equal(got, want) {
		t.Fatal("drained checkpoint differs from undrained reference run")
	}
	// And the drained directory restarts into exactly that state.
	w2, report, err := OpenWorld(WorldConfig{Name: "t", Shards: 4, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Resumed {
		t.Fatal("restart did not resume")
	}
	if snap := w2.Snapshot(); snap.Batches != n {
		t.Fatalf("restart resumed %d batches, want %d", snap.Batches, n)
	}
	if err := w2.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyDegradation exercises the bottom rungs of the ladder: each
// exhausted checkpoint save fails its own ingest (applied in memory, not
// acknowledged), ReadOnlyAfter consecutive failures flip the world
// read-only, and queries keep serving the in-memory state throughout.
func TestReadOnlyDegradation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	ifs := fault.NewInjectFS(fault.OS(), 5)
	w, _, err := OpenWorld(WorldConfig{
		Name: "t", CheckpointPath: path, ReadOnlyAfter: 2,
		FS: ifs, Sleeper: fault.NewRecorder(),
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := scenarioBatches(t, 4, 5, 31)

	if _, err := w.Ingest(context.Background(), batches[0]); err != nil {
		t.Fatalf("healthy batch: %v", err)
	}

	// Every sync fails from here on: saves retry inside the sink, then
	// give up.
	ifs.FailSyncs(1 << 30)
	if _, err := w.Ingest(context.Background(), batches[1]); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("first failing batch = %v, want not-durable error", err)
	}
	if w.ReadOnly() {
		t.Fatal("read-only after a single failure with ReadOnlyAfter=2")
	}
	if _, err := w.Ingest(context.Background(), batches[2]); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("second failing batch = %v, want not-durable error", err)
	}
	if !w.ReadOnly() {
		t.Fatal("not read-only after ReadOnlyAfter consecutive failures")
	}
	if _, err := w.Ingest(context.Background(), batches[3]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ingest on read-only world = %v, want ErrReadOnly", err)
	}

	// Queries keep serving everything that was applied, acknowledged or
	// not: 3 batches live in memory.
	if snap := w.Snapshot(); snap.Batches != 3 {
		t.Fatalf("read-only world serves %d batches, want 3", snap.Batches)
	}
	if got := w.m.checkpointFailures.Load(); got != 2 {
		t.Fatalf("checkpointFailures = %d, want 2", got)
	}

	// Drain skips the final save on a read-only world (it would fail) and
	// leaves the last durable checkpoint — batch 0 — intact.
	if err := w.Drain(); err != nil {
		t.Fatalf("drain of read-only world: %v", err)
	}
	st, err := core.RestoreStream(bytes.NewReader(mustRead(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Batches(); got != 1 {
		t.Fatalf("durable checkpoint holds %d batches, want 1 (the acknowledged one)", got)
	}
}

// TestCrashDuringCheckpointRestart kills the filesystem while batch 1 is
// being made durable — tearing its log append, or failing the append
// short so the sink falls back to a full checkpoint and dying at that
// checkpoint's rename, before or after it takes effect — and proves
// restart resumes from a valid state every time, with no acknowledged
// batch lost and the re-fed stream byte-identical to an uninterrupted
// reference.
func TestCrashDuringCheckpointRestart(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(*fault.InjectFS)
		want int // batches the restart resumes
	}{
		{"torn-log-append", func(f *fault.InjectFS) { f.TearWrites(1) }, 1},
		{"crash-before-rename", func(f *fault.InjectFS) { f.ShortWrites(1); f.CrashAtRename(false) }, 1},
		{"crash-after-rename", func(f *fault.InjectFS) { f.ShortWrites(1); f.CrashAtRename(true) }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "checkpoint.json")
			batches := scenarioBatches(t, 3, 6, 47)

			ifs := fault.NewInjectFS(fault.OS(), 13)
			w, _, err := OpenWorld(WorldConfig{
				Name: "t", Shards: 2, CheckpointPath: path, ReadOnlyAfter: -1,
				FS: ifs, Sleeper: fault.NewRecorder(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Ingest(context.Background(), batches[0]); err != nil {
				t.Fatalf("batch 0: %v", err)
			}

			// The crash: the process dies while batch 1 is being made
			// durable. The requester is never acknowledged.
			tc.arm(ifs)
			if _, err := w.Ingest(context.Background(), batches[1]); err == nil {
				t.Fatal("batch 1 acknowledged through a crashed filesystem")
			}
			if err := w.Drain(); err == nil {
				// Final save may also fail on the dead FS; either way the
				// on-disk state must be a valid checkpoint.
				t.Log("drain succeeded despite crashed fs (final save skipped)")
			}

			// Restart over the real filesystem: wherever the crash landed,
			// the newest valid state must restore — batch 0 alone, or
			// batches 0-1.
			w2, report, err := OpenWorld(WorldConfig{Name: "t", Shards: 3, CheckpointPath: path})
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			if !report.Resumed {
				t.Fatalf("restart did not resume (report %+v)", report)
			}
			resumed := w2.Snapshot().Batches
			if resumed != tc.want {
				t.Fatalf("restart resumed %d batches, want %d", resumed, tc.want)
			}

			// Re-feed everything the checkpoint does not hold; the final
			// state must match the uninterrupted reference run exactly.
			for i := resumed; i < len(batches); i++ {
				if _, err := w2.Ingest(context.Background(), batches[i]); err != nil {
					t.Fatalf("re-fed batch %d: %v", i, err)
				}
			}
			if err := w2.Drain(); err != nil {
				t.Fatal(err)
			}
			if got, want := mustRead(t, path), referenceCheckpoint(t, 2, batches); !bytes.Equal(got, want) {
				t.Fatal("post-crash resumed state differs from uninterrupted reference")
			}
		})
	}
}

func TestOpenWorldQuarantinesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, report, err := OpenWorld(WorldConfig{Name: "t", CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if report.Resumed || report.QuarantinedPath != path+".corrupt" {
		t.Fatalf("report %+v, want quarantine at %s.corrupt", report, path)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantined bytes missing: %v", err)
	}
	if snap := w.Snapshot(); snap.Batches != 0 {
		t.Fatal("quarantined world is not fresh")
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestWorldDecayIdentity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	batches := scenarioBatches(t, 2, 5, 9)

	w, _, err := OpenWorld(WorldConfig{Name: "t", CheckpointPath: path, TrustDecay: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Ingest(context.Background(), batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}

	// A conflicting factor must be refused before any state moves.
	if _, _, err := OpenWorld(WorldConfig{Name: "t", CheckpointPath: path, TrustDecay: 0.5}); err == nil {
		t.Fatal("conflicting decay factor accepted on resume")
	}
	if _, _, err := OpenWorld(WorldConfig{Name: "t", CheckpointPath: path}); err == nil {
		t.Fatal("dropped decay factor accepted on resume")
	}
	// The recorded factor resumes.
	w2, report, err := OpenWorld(WorldConfig{Name: "t", CheckpointPath: path, TrustDecay: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Resumed || w2.Snapshot().TrustDecay != 0.8 {
		t.Fatalf("resume with matching decay: report %+v decay %v", report, w2.Snapshot().TrustDecay)
	}
	if _, err := w2.Ingest(context.Background(), batches[1]); err != nil {
		t.Fatal(err)
	}
	if err := w2.Drain(); err != nil {
		t.Fatal(err)
	}

	// An out-of-range factor is refused at configuration time.
	if _, _, err := OpenWorld(WorldConfig{Name: "x", TrustDecay: 1.5}); err == nil {
		t.Fatal("out-of-range decay accepted")
	}
}

func TestIngestExpiryIsNotAcknowledgment(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	w, _, err := OpenWorld(WorldConfig{
		Name: "t",
		Gate: func() { entered <- struct{}{}; <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := scenarioBatches(t, 1, 4, 5)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := w.Ingest(ctx, batches[0])
		done <- err
	}()
	<-entered
	cancel() // requester gives up while the batch is being applied
	if err := <-done; !errors.Is(err, ErrNotAcknowledged) {
		t.Fatalf("expired ingest = %v, want ErrNotAcknowledged", err)
	}
	// The admitted batch still runs to its boundary.
	close(release)
	waitFor(t, func() bool { return w.Snapshot().Batches == 1 })
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond with a deadline; serving tests use it only where the
// awaited state is guaranteed to arrive (a queue draining, a published
// snapshot), never as a substitute for a deterministic assertion.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
