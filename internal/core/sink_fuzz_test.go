package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"corroborate/internal/truth"
)

// FuzzRestore: for ANY bytes sitting at the checkpoint path and its log
// path, the sink must hand back a working stream — resumed when the base
// is valid and the log replays onto it (a torn final record ignored),
// quarantined-and-fresh otherwise, base and log together — and never
// panic, never hard-error on corruption, and never leave a path blocked
// for the next commit. A resumed stream's own checkpoint must decode
// cleanly. This is the self-healing contract of CheckpointSink under
// arbitrary disk rot. Run open-ended with
// `go test -run='^$' -fuzz=FuzzRestore ./internal/core` (make fuzz-smoke
// does a bounded pass).
func FuzzRestore(f *testing.F) {
	st := NewShardedStream(2)
	var base, log bytes.Buffer
	for i, batch := range [][]BatchVote{
		{
			{Fact: "a", Source: "s1", Vote: truth.Affirm},
			{Fact: "a", Source: "s2", Vote: truth.Affirm},
			{Fact: "b", Source: "s1", Vote: truth.Deny},
		},
		{
			{Fact: "c", Source: "s2", Vote: truth.Deny},
			{Fact: "c", Source: "s3", Vote: truth.Affirm},
		},
		{
			{Fact: "d", Source: "s1", Vote: truth.Affirm},
			{Fact: "d", Source: "\xff", Vote: truth.Affirm},
		},
	} {
		if _, err := st.AddBatch(batch); err != nil {
			f.Fatal(err)
		}
		if i == 0 {
			if err := st.Checkpoint(&base); err != nil {
				f.Fatal(err)
			}
			continue
		}
		rec, _, err := st.batchRecord()
		if err != nil {
			f.Fatal(err)
		}
		log.Write(rec)
	}
	valid, records := base.Bytes(), log.Bytes()
	f.Add(valid, []byte(nil))
	f.Add(valid, records)
	f.Add(valid, records[:len(records)-1])                            // unterminated tail
	f.Add(valid, records[:len(records)/2])                            // torn mid-record
	f.Add(valid, append([]byte("x"), records...))                     // bad first record
	f.Add(valid, append(append([]byte(nil), records...), records...)) // repeat
	f.Add(valid[:len(valid)/2], []byte(nil))                          // torn base
	f.Add(valid[:len(valid)/2], records)                              // torn base with a log
	f.Add(append([]byte("x"), valid...), []byte(nil))                 // leading garbage
	f.Add([]byte(``), []byte(nil))                                    // zero-length
	f.Add([]byte(`{}`), []byte(nil))                                  // empty envelope
	f.Add([]byte("\x00\xff\x00\xff"), []byte("\x00\n\xff"))           // binary noise
	f.Add([]byte(`{"format":"corroborate/stream-checkpoint","version":1,"checksum":"00000000","state":null}`), []byte(nil))

	probe := []BatchVote{
		{Fact: "probe", Source: "s9", Vote: truth.Affirm},
	}
	f.Fuzz(func(t *testing.T, base, log []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")
		if err := os.WriteFile(path, base, 0o644); err != nil {
			t.Fatal(err)
		}
		written := map[string][]byte{path: base}
		if len(log) > 0 {
			if err := os.WriteFile(path+".log", log, 0o644); err != nil {
				t.Fatal(err)
			}
			written[path+".log"] = log
		}
		sink := NewCheckpointSink(path)
		ss, report, err := sink.Restore(2)
		if err != nil {
			t.Fatalf("restore hard-errored on byte input: %v", err)
		}
		if report.Resumed {
			if report.QuarantinedPath != "" || report.QuarantinedLog != "" {
				t.Fatalf("resumed AND quarantined: %+v", report)
			}
			var again bytes.Buffer
			if err := ss.Checkpoint(&again); err != nil {
				t.Fatal(err)
			}
			if _, err := RestoreShardedStream(bytes.NewReader(again.Bytes()), 1); err != nil {
				t.Fatalf("resumed stream's checkpoint does not decode: %v", err)
			}
		} else {
			// Every existing-but-invalid input must be quarantined with
			// its partner, the corrupt bytes preserved verbatim, and both
			// paths cleared.
			if report.Cause == nil || report.QuarantinedPath != path+".corrupt" {
				t.Fatalf("fresh start without quarantine for existing base: %+v", report)
			}
			if wantLog := len(log) > 0; (report.QuarantinedLog != "") != wantLog {
				t.Fatalf("log quarantine %q, log present %v", report.QuarantinedLog, wantLog)
			}
			for from, data := range written {
				moved, rerr := os.ReadFile(from + ".corrupt")
				if rerr != nil {
					t.Fatalf("quarantine file unreadable: %v", rerr)
				}
				if !bytes.Equal(moved, data) {
					t.Fatalf("quarantine altered the corrupt bytes of %s", from)
				}
				if _, serr := os.Stat(from); !errors.Is(serr, os.ErrNotExist) {
					t.Fatalf("%s still occupied after quarantine: %v", from, serr)
				}
			}
		}
		// Whatever came back must be a live stream: corroborate and commit.
		if _, err := ss.AddBatch(probe); err != nil {
			t.Fatalf("restored stream rejected a valid batch: %v", err)
		}
		if err := sink.Commit(ss); err != nil {
			t.Fatalf("commit after restore: %v", err)
		}
		healed, report, err := NewCheckpointSink(path).Restore(2)
		if err != nil || !report.Resumed {
			t.Fatalf("round trip after healing: err=%v report=%+v", err, report)
		}
		requireStreamsIdentical(t, "round trip after healing", healed, ss)
	})
}
