package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"corroborate/internal/fault"
)

// sinkWorld builds a deterministic three-batch world plus a reference
// stream fed all of it, for the crash-consistency batteries.
func sinkWorld(t *testing.T) (batches [][]BatchVote, ref *Stream) {
	t.Helper()
	d := randomDataset(31, 6, 120)
	batches = splitByFact(d, 3)
	ref = NewShardedStream(3)
	feed(t, ref, batches)
	return batches, ref
}

// requireNoTemps fails when a Save's temp file survives next to path.
func requireNoTemps(t *testing.T, path string) {
	t.Helper()
	if temps, _ := filepath.Glob(path + ".tmp-*"); len(temps) != 0 {
		t.Fatalf("temp files left after restore: %v", temps)
	}
}

func TestSinkSaveRestoreRoundTrip(t *testing.T) {
	batches, ref := sinkWorld(t)
	path := filepath.Join(t.TempDir(), "state.json")
	sink := NewCheckpointSink(path)

	st := NewShardedStream(3)
	feed(t, st, batches[:2])
	if err := sink.Save(st); err != nil {
		t.Fatal(err)
	}
	restored, report, err := sink.Restore(3)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Resumed || report.QuarantinedPath != "" {
		t.Fatalf("report = %+v, want clean resume", report)
	}
	feed(t, restored, batches[2:])
	requireStreamsIdentical(t, "restored continuation", restored, ref)
}

func TestSinkRestoreMissingIsFreshStart(t *testing.T) {
	sink := NewCheckpointSink(filepath.Join(t.TempDir(), "absent", "state.json"))
	st, report, err := sink.Restore(2)
	if err != nil {
		t.Fatal(err)
	}
	if report.Resumed || report.QuarantinedPath != "" {
		t.Fatalf("report = %+v, want fresh start", report)
	}
	if st.Batches() != 0 {
		t.Fatal("fresh stream carries batches")
	}
}

// TestSinkCrashAtRenameResumesEitherSide is the issue's acceptance
// criterion: a crash between temp-write and rename leaves either the old
// or the new checkpoint, and resume ALWAYS succeeds — from whichever
// survived — and replays to the reference state.
func TestSinkCrashAtRenameResumesEitherSide(t *testing.T) {
	for _, applied := range []bool{false, true} {
		batches, ref := sinkWorld(t)
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")

		// First life: one batch, one clean checkpoint.
		st := NewShardedStream(3)
		feed(t, st, batches[:1])
		ifs := fault.NewInjectFS(fault.OS(), 1)
		sink := &CheckpointSink{Path: path, FS: ifs, Sleeper: fault.NewRecorder()}
		if err := sink.Save(st); err != nil {
			t.Fatal(err)
		}

		// Second batch; the process dies mid-rename while rewriting.
		feed(t, st, batches[1:2])
		ifs.CrashAtRename(applied)
		if err := sink.Save(st); !errors.Is(err, fault.ErrCrashed) {
			t.Fatalf("applied=%v: Save = %v, want ErrCrashed", applied, err)
		}

		leftover := 1 // the temp a crash before the rename strands
		if applied {
			leftover = 0
		}
		if temps, _ := filepath.Glob(path + ".tmp-*"); len(temps) != leftover {
			t.Fatalf("applied=%v: crash left temps %v, want %d", applied, temps, leftover)
		}

		// Restart: fresh filesystem handle over the same directory.
		sink2 := NewCheckpointSink(path)
		restored, report, err := sink2.Restore(3)
		if err != nil {
			t.Fatalf("applied=%v: resume blocked: %v", applied, err)
		}
		if !report.Resumed {
			t.Fatalf("applied=%v: no checkpoint survived the crash", applied)
		}
		requireNoTemps(t, path)
		wantBatches := 1
		if applied {
			wantBatches = 2
		}
		if got := restored.Batches(); got != wantBatches {
			t.Fatalf("applied=%v: resumed at batch %d, want %d", applied, got, wantBatches)
		}
		feed(t, restored, batches[wantBatches:])
		requireStreamsIdentical(t, "replay after rename crash", restored, ref)
	}
}

// TestSinkCrashDuringTempWriteKeepsOldCheckpoint: a torn write inside the
// temp file must never reach the published checkpoint.
func TestSinkCrashDuringTempWriteKeepsOldCheckpoint(t *testing.T) {
	batches, ref := sinkWorld(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")

	st := NewShardedStream(3)
	feed(t, st, batches[:1])
	ifs := fault.NewInjectFS(fault.OS(), 5)
	sink := &CheckpointSink{Path: path, FS: ifs, Sleeper: fault.NewRecorder()}
	if err := sink.Save(st); err != nil {
		t.Fatal(err)
	}

	feed(t, st, batches[1:2])
	ifs.TearWrites(1)
	if err := sink.Save(st); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("Save = %v, want ErrCrashed", err)
	}
	if temps, _ := filepath.Glob(path + ".tmp-*"); len(temps) != 1 {
		t.Fatalf("crash left temps %v, want the torn one", temps)
	}

	restored, report, err := NewCheckpointSink(path).Restore(3)
	if err != nil || !report.Resumed {
		t.Fatalf("resume after torn temp write: err=%v report=%+v", err, report)
	}
	requireNoTemps(t, path)
	if got := restored.Batches(); got != 1 {
		t.Fatalf("resumed at batch %d, want the pre-crash 1", got)
	}
	feed(t, restored, batches[1:])
	requireStreamsIdentical(t, "replay after torn write", restored, ref)
}

// TestSinkRetriesTransientFaults: short writes and fsync failures are
// retried on the deterministic backoff schedule and the save lands.
func TestSinkRetriesTransientFaults(t *testing.T) {
	batches, _ := sinkWorld(t)
	st := NewShardedStream(3)
	feed(t, st, batches[:1])

	for name, arm := range map[string]func(*fault.InjectFS){
		"short write": func(f *fault.InjectFS) { f.ShortWrites(1) },
		"fsync":       func(f *fault.InjectFS) { f.FailSyncs(2) },
		"dir fsync":   func(f *fault.InjectFS) { f.FailDirSyncs(1) },
	} {
		dir := t.TempDir()
		ifs := fault.NewInjectFS(fault.OS(), 9)
		arm(ifs)
		rec := fault.NewRecorder()
		sink := &CheckpointSink{
			Path: filepath.Join(dir, "state.json"), FS: ifs, Sleeper: rec,
			BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
		}
		if err := sink.Save(st); err != nil {
			t.Fatalf("%s: Save with transient faults: %v", name, err)
		}
		slept := rec.Slept()
		if len(slept) == 0 {
			t.Fatalf("%s: no backoff recorded; fault never fired", name)
		}
		for i, d := range slept {
			want := time.Millisecond << i
			if want > 4*time.Millisecond {
				want = 4 * time.Millisecond
			}
			if d != want {
				t.Fatalf("%s: backoff[%d] = %v, want %v (schedule %v)", name, i, d, want, slept)
			}
		}
		if _, report, err := NewCheckpointSink(sink.Path).Restore(3); err != nil || !report.Resumed {
			t.Fatalf("%s: restore after retried save: err=%v report=%+v", name, err, report)
		}
	}
}

func TestSinkRetriesExhausted(t *testing.T) {
	batches, _ := sinkWorld(t)
	st := NewShardedStream(3)
	feed(t, st, batches[:1])

	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := NewCheckpointSink(path).Save(st); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	ifs := fault.NewInjectFS(fault.OS(), 2)
	ifs.FailSyncs(100)
	sink := &CheckpointSink{Path: path, FS: ifs, Sleeper: fault.NewRecorder(), MaxRetries: 2,
		BaseDelay: time.Millisecond}
	feed(t, st, batches[1:2])
	if err := sink.Save(st); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Save = %v, want ErrInjected after exhausted retries", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save disturbed the previous checkpoint")
	}
}

// TestSinkQuarantinesCorruptCheckpoints is the resume-from-corruption
// battery: truncated, bit-flipped, and zero-length checkpoints are moved
// to .corrupt and the stream starts fresh — never a hard error, never a
// silent half-restore.
func TestSinkQuarantinesCorruptCheckpoints(t *testing.T) {
	batches, _ := sinkWorld(t)
	st := NewShardedStream(3)
	feed(t, st, batches[:2])
	var valid bytes.Buffer
	if err := st.Checkpoint(&valid); err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)/2] },
		"zero-length": func([]byte) []byte { return nil },
		"bit-flipped": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		},
	}
	for name, corrupt := range corruptions {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")
		damaged := corrupt(valid.Bytes())
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		sink := NewCheckpointSink(path)
		fresh, report, err := sink.Restore(3)
		if err != nil {
			t.Fatalf("%s: restore errored instead of quarantining: %v", name, err)
		}
		if report.Resumed {
			t.Fatalf("%s: corrupt checkpoint resumed", name)
		}
		if report.QuarantinedPath != path+".corrupt" || report.Cause == nil {
			t.Fatalf("%s: report = %+v, want quarantine with cause", name, report)
		}
		if fresh.Batches() != 0 || len(fresh.Decided()) != 0 {
			t.Fatalf("%s: fresh stream carries state", name)
		}
		// The damaged bytes moved aside for forensics; the path is free.
		moved, err := os.ReadFile(report.QuarantinedPath)
		if err != nil {
			t.Fatalf("%s: quarantine file: %v", name, err)
		}
		if !bytes.Equal(moved, damaged) {
			t.Fatalf("%s: quarantine altered the corrupt bytes", name)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: corrupt checkpoint still at %s", name, path)
		}
		// The fresh stream is fully usable and its saves land cleanly.
		feed(t, fresh, batches[:1])
		if err := sink.Save(fresh); err != nil {
			t.Fatalf("%s: save after quarantine: %v", name, err)
		}
		if _, report, err := sink.Restore(3); err != nil || !report.Resumed {
			t.Fatalf("%s: second restore: err=%v report=%+v", name, err, report)
		}
	}
}

// TestSinkQuarantineViaFaultFS routes the corruption battery through the
// fault fs shim itself: a torn write that the protocol is prevented from
// fsync-protecting (simulated by corrupting the published file directly)
// must still quarantine cleanly on the injected filesystem.
func TestSinkQuarantineViaFaultFS(t *testing.T) {
	batches, _ := sinkWorld(t)
	st := NewShardedStream(3)
	feed(t, st, batches[:1])

	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := NewCheckpointSink(path).Save(st); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	ifs := fault.NewInjectFS(fault.OS(), 13)
	sink := &CheckpointSink{Path: path, FS: ifs, Sleeper: fault.NewRecorder()}
	fresh, report, err := sink.Restore(2)
	if err != nil {
		t.Fatal(err)
	}
	if report.Resumed || report.QuarantinedPath == "" {
		t.Fatalf("report = %+v, want quarantine", report)
	}
	feed(t, fresh, batches)
	if err := sink.Save(fresh); err != nil {
		t.Fatal(err)
	}
}

// logFixture commits the sink world's first batch as a base at path and
// returns the framed log records of its second and third batches, plus a
// stream holding all three.
func logFixture(t *testing.T, path string) (records [][]byte, st *Stream) {
	t.Helper()
	batches, _ := sinkWorld(t)
	st = NewShardedStream(2)
	feed(t, st, batches[:1])
	if err := NewCheckpointSink(path).Save(st); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[1:] {
		feed(t, st, [][]BatchVote{b})
		rec, batch, err := st.batchRecord()
		if err != nil || batch != st.Batches()-1 {
			t.Fatalf("record for batch %d: %v (batch %d)", st.Batches()-1, err, batch)
		}
		records = append(records, rec)
	}
	return records, st
}

// reframe decodes a framed record, lets edit change it, and frames it
// again with a valid checksum.
func reframe(t *testing.T, rec []byte, edit func(*logRecord)) []byte {
	t.Helper()
	var r logRecord
	if err := json.Unmarshal(rec[9:len(rec)-1], &r); err != nil {
		t.Fatal(err)
	}
	edit(&r)
	payload, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(checksum(payload) + " " + string(payload) + "\n")
}

// TestSinkLogTornTailIsIgnored: a final record without its terminator or
// with a bad checksum was never acknowledged. Restore resumes from the
// records before it, and the sink's next commit rewrites the base instead
// of appending behind the torn bytes.
func TestSinkLogTornTailIsIgnored(t *testing.T) {
	for name, tail := range map[string]func([]byte) []byte{
		"unterminated": func(r []byte) []byte { return r[:len(r)-1] },
		"half":         func(r []byte) []byte { return r[:len(r)/2] },
		"bad checksum": func(r []byte) []byte {
			c := append([]byte(nil), r...)
			c[len(c)/2] ^= 0x01
			return c
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.json")
			records, full := logFixture(t, path)
			log := append(append([]byte(nil), records[0]...), tail(records[1])...)
			if err := os.WriteFile(path+".log", log, 0o644); err != nil {
				t.Fatal(err)
			}
			sink := NewCheckpointSink(path)
			st, report, err := sink.Restore(3)
			if err != nil || !report.Resumed || report.QuarantinedLog != "" {
				t.Fatalf("restore: report %+v, err %v", report, err)
			}
			if got := st.Batches(); got != 2 {
				t.Fatalf("resumed %d batches, want 2 (the torn third ignored)", got)
			}
			if on, _ := os.ReadFile(path + ".log"); !bytes.Equal(on, log) {
				t.Fatal("restore modified the log")
			}
			batches, _ := sinkWorld(t)
			feed(t, st, batches[2:])
			if err := sink.Commit(st); err != nil {
				t.Fatal(err)
			}
			if sink.Compactions() != 1 {
				t.Fatal("commit after a torn log appended behind it")
			}
			resumed, _, err := NewCheckpointSink(path).Restore(1)
			if err != nil {
				t.Fatal(err)
			}
			requireStreamsIdentical(t, "after compaction", resumed, full)
		})
	}
}

// TestSinkQuarantinesCorruptLog: damage that no crash can produce — a bad
// record with more bytes after it, a gap or repeat in the batch numbers,
// a replayed state that fails validation, a log without a base — moves
// the base and the log aside together and starts fresh.
func TestSinkQuarantinesCorruptLog(t *testing.T) {
	cases := map[string]func(records [][]byte) []byte{
		"bad record then more": func(r [][]byte) []byte {
			bad := append([]byte(nil), r[0]...)
			bad[20] ^= 0x01
			return append(bad, r[1]...)
		},
		"gap":    func(r [][]byte) []byte { return r[1] },
		"repeat": func(r [][]byte) []byte { return append(append([]byte(nil), r[0]...), r[0]...) },
		"invalid state": func(r [][]byte) []byte {
			return reframe(t, r[0], func(rec *logRecord) { rec.Moved[0].Count = 0 })
		},
		"source out of range": func(r [][]byte) []byte {
			return reframe(t, r[0], func(rec *logRecord) { rec.Moved[len(rec.Moved)-1].ID = 1 << 20 })
		},
		"first batch": func(r [][]byte) []byte {
			return reframe(t, r[0], func(rec *logRecord) { rec.Batch = 0 })
		},
		"no base": nil,
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.json")
			records, _ := logFixture(t, path)
			log := append(append([]byte(nil), records[0]...), records[1]...)
			switch {
			case corrupt == nil:
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			case name == "first batch":
				// Only a base that has run no batch expects batch 0 next.
				if err := NewCheckpointSink(path).Save(NewShardedStream(2)); err != nil {
					t.Fatal(err)
				}
				fallthrough
			default:
				log = corrupt(records)
			}
			if err := os.WriteFile(path+".log", log, 0o644); err != nil {
				t.Fatal(err)
			}
			sink := NewCheckpointSink(path)
			fresh, report, err := sink.Restore(2)
			if err != nil {
				t.Fatalf("restore errored instead of quarantining: %v", err)
			}
			if report.Resumed || report.Cause == nil || report.QuarantinedLog != path+".log.corrupt" {
				t.Fatalf("report = %+v, want log quarantine with cause", report)
			}
			wantBase := path + ".corrupt"
			if corrupt == nil {
				wantBase = ""
			}
			if report.QuarantinedPath != wantBase {
				t.Fatalf("base quarantined to %q, want %q", report.QuarantinedPath, wantBase)
			}
			if moved, err := os.ReadFile(report.QuarantinedLog); err != nil || !bytes.Equal(moved, log) {
				t.Fatalf("quarantined log: %v (bytes preserved %v)", err, bytes.Equal(moved, log))
			}
			for _, p := range []string{path, path + ".log"} {
				if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("%s still present after quarantine: %v", p, err)
				}
			}
			if fresh.Batches() != 0 {
				t.Fatal("quarantined restore is not a fresh start")
			}
			batches, _ := sinkWorld(t)
			feed(t, fresh, batches[:1])
			if err := sink.Commit(fresh); err != nil {
				t.Fatal(err)
			}
			if _, report, err := NewCheckpointSink(path).Restore(2); err != nil || !report.Resumed {
				t.Fatalf("restore after healing: report %+v, err %v", report, err)
			}
		})
	}
}

// TestSinkLogStaleRecordsSkipped: a crash between a compaction's rename
// and its log reset leaves records for batches the base already holds.
// Restore skips them, and records appended after them still replay.
func TestSinkLogStaleRecordsSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	records, full := logFixture(t, path)
	// The base catches up with both records, but the log keeps them.
	if err := NewCheckpointSink(path).Save(full); err != nil {
		t.Fatal(err)
	}
	stale := append(append([]byte(nil), records[0]...), records[1]...)
	if err := os.WriteFile(path+".log", stale, 0o644); err != nil {
		t.Fatal(err)
	}
	sink := NewCheckpointSink(path)
	st, report, err := sink.Restore(2)
	if err != nil || !report.Resumed {
		t.Fatalf("restore: report %+v, err %v", report, err)
	}
	requireStreamsIdentical(t, "stale log", st, full)

	more := splitByFact(randomDataset(77, 6, 40), 1)
	feed(t, st, more)
	feed(t, full, more)
	if err := sink.Commit(st); err != nil {
		t.Fatal(err)
	}
	if sink.Compactions() != 0 || sink.LogBytes() <= int64(len(stale)) {
		t.Fatalf("commit after stale records did not append (compactions %d, log %d bytes)", sink.Compactions(), sink.LogBytes())
	}
	resumed, _, err := NewCheckpointSink(path).Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	requireStreamsIdentical(t, "stale records then a new one", resumed, full)
}

// TestSinkCommitCompactsWhenItCannotCount: the sink appends a record only
// for the batch right after the ones it knows the files hold. A stream
// that advanced twice since its last commit, or a Save made outside
// Commit, makes the next commit a full checkpoint instead of a log with a
// gap in it.
func TestSinkCommitCompactsWhenItCannotCount(t *testing.T) {
	d := randomDataset(91, 6, 200)
	batches := splitByFact(d, 5)
	path := filepath.Join(t.TempDir(), "state.json")
	sink := NewCheckpointSink(path)
	st := NewShardedStream(2)
	commit := func(wantCompactions int64) {
		t.Helper()
		if err := sink.Commit(st); err != nil {
			t.Fatal(err)
		}
		if got := sink.Compactions(); got != wantCompactions {
			t.Fatalf("after batch %d: %d compactions, want %d", st.Batches()-1, got, wantCompactions)
		}
		restored, _, err := NewCheckpointSink(path).Restore(1)
		if err != nil {
			t.Fatal(err)
		}
		requireStreamsIdentical(t, "restored", restored, st)
	}
	feed(t, st, batches[:1])
	commit(1) // a fresh tenant's first batch
	feed(t, st, batches[1:2])
	commit(1) // logged
	feed(t, st, batches[2:4])
	commit(2) // two batches since the last commit: compacted
	feed(t, st, batches[4:5])
	if err := sink.Save(st); err != nil {
		t.Fatal(err)
	}
	more := splitByFact(randomDataset(92, 6, 40), 1)
	feed(t, st, more)
	commit(4) // after a Save the sink did not count: compacted
}
