package core

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"corroborate/internal/fault"
)

// These tests pin the sink's backoff schedule through the injectable
// Sleeper: the exact sequence and the give-up contract are the assertions.

// TestSinkDefaultBackoffSchedule: a persistently failing save sleeps
// exactly 10ms, 20ms, 40ms (3 retries after the first attempt) and then
// gives up with an error naming all 4 attempts.
func TestSinkDefaultBackoffSchedule(t *testing.T) {
	batches, _ := sinkWorld(t)
	st := NewShardedStream(3)
	feed(t, st, batches[:1])

	ifs := fault.NewInjectFS(fault.OS(), 1)
	ifs.FailSyncs(1 << 30) // every fsync fails: the save can never land
	rec := fault.NewRecorder()
	sink := &CheckpointSink{Path: filepath.Join(t.TempDir(), "state.json"), FS: ifs, Sleeper: rec}

	err := sink.Save(st)
	if err == nil {
		t.Fatal("Save succeeded under a permanently failing fsync")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("give-up error hides the cause: %v", err)
	}
	if !strings.Contains(err.Error(), "after 4 attempts") {
		t.Fatalf("give-up error %q does not report the attempt count", err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	got := rec.Slept()
	if len(got) != len(want) {
		t.Fatalf("slept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (full schedule %v)", i, got[i], want[i], got)
		}
	}
}

// TestSinkGiveUpPreservesPreviousCheckpoint: exhausting retries must leave
// the previous durable checkpoint fully intact — give-up degrades
// freshness, never durability.
func TestSinkGiveUpPreservesPreviousCheckpoint(t *testing.T) {
	batches, _ := sinkWorld(t)
	path := filepath.Join(t.TempDir(), "state.json")

	st := NewShardedStream(3)
	feed(t, st, batches[:1])
	good := NewCheckpointSink(path)
	if err := good.Save(st); err != nil {
		t.Fatal(err)
	}

	// Advance the stream, then fail every subsequent save attempt.
	feed(t, st, batches[1:2])
	ifs := fault.NewInjectFS(fault.OS(), 1)
	ifs.FailSyncs(1 << 30)
	bad := &CheckpointSink{Path: path, FS: ifs, Sleeper: fault.NewRecorder()}
	if err := bad.Save(st); err == nil {
		t.Fatal("Save succeeded under a permanently failing fsync")
	}

	// The batch-1 checkpoint written before the fault must still restore.
	restored, report, err := NewCheckpointSink(path).Restore(3)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Resumed || report.QuarantinedPath != "" {
		t.Fatalf("previous checkpoint damaged by failed save: %+v", report)
	}
	if got := restored.Batches(); got != 1 {
		t.Fatalf("restored %d batches, want the pre-fault 1", got)
	}
}
