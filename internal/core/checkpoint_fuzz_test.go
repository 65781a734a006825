package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"corroborate/internal/truth"
)

// FuzzCheckpoint: arbitrary bytes must either fail to restore with a clean
// error or restore into a stream whose canonical re-encode is a fixed
// point — encode(restore(encode(restore(x)))) == encode(restore(x)) — and
// that keeps working (a probe batch must corroborate on both copies with
// identical output). Seed corpus regressions live in
// testdata/fuzz/FuzzCheckpoint. Run the seeds with plain `go test`; use
// `go test -run='^$' -fuzz=FuzzCheckpoint ./internal/core` for open-ended
// fuzzing (make fuzz-smoke does a bounded pass).
func FuzzCheckpoint(f *testing.F) {
	// A live checkpoint with real state.
	st := NewShardedStream(1)
	if _, err := st.AddBatch([]BatchVote{
		{Fact: "a", Source: "s1", Vote: truth.Affirm},
		{Fact: "a", Source: "s2", Vote: truth.Affirm},
		{Fact: "b", Source: "s1", Vote: truth.Deny},
		{Fact: "b", Source: "s3", Vote: truth.Affirm},
	}); err != nil {
		f.Fatal(err)
	}
	if _, err := st.AddBatch([]BatchVote{
		{Fact: "c", Source: "s3", Vote: truth.Affirm},
	}); err != nil {
		f.Fatal(err)
	}
	var live bytes.Buffer
	if err := st.Checkpoint(&live); err != nil {
		f.Fatal(err)
	}
	f.Add(live.Bytes())
	// An empty checkpoint.
	var empty bytes.Buffer
	if err := NewShardedStream(1).Checkpoint(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	// Structurally near-miss inputs.
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":"corroborate/stream-checkpoint","version":1,"checksum":"00000000","state":null}`))
	f.Add([]byte(`{"format":"corroborate/stream-checkpoint","version":1,"checksum":"deadbeef","state":{"config":{"strategy":"IncEstScale"}}}`))
	f.Add([]byte("\x00\x01\x02"))

	probe := []BatchVote{
		{Fact: "probe", Source: "s1", Vote: truth.Affirm},
		{Fact: "probe", Source: "fresh", Vote: truth.Affirm},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := RestoreShardedStream(bytes.NewReader(data), 1)
		if err != nil {
			return // rejected input may fail, but must not panic
		}
		var enc1 bytes.Buffer
		if err := first.Checkpoint(&enc1); err != nil {
			t.Fatalf("re-encoding an accepted checkpoint: %v", err)
		}
		second, err := RestoreShardedStream(bytes.NewReader(enc1.Bytes()), 1)
		if err != nil {
			t.Fatalf("canonical re-encode failed to restore: %v", err)
		}
		var enc2 bytes.Buffer
		if err := second.Checkpoint(&enc2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("canonical encoding is not a fixed point:\n%s\n%s", enc1.Bytes(), enc2.Bytes())
		}
		// Both restored copies must stay functional and agree bitwise.
		out1, err1 := first.AddBatch(probe)
		out2, err2 := second.AddBatch(probe)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("probe batch error mismatch: %v vs %v", err1, err2)
		}
		if err1 != nil {
			t.Fatalf("probe batch rejected on restored stream: %v", err1)
		}
		if len(out1) != len(out2) {
			t.Fatalf("probe decided %d vs %d facts", len(out1), len(out2))
		}
		for i := range out1 {
			if out1[i] != out2[i] {
				t.Fatalf("probe diverged at %d: %+v vs %+v", i, out1[i], out2[i])
			}
		}
	})
}

// corpusInputs reads the []byte inputs of a fuzz corpus directory
// (testdata/fuzz/<target>, "go test fuzz v1" files).
func corpusInputs(tb testing.TB, dir string) [][][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][][]byte
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		var args [][]byte
		for _, line := range strings.Split(string(data), "\n")[1:] {
			if q, ok := strings.CutPrefix(line, "[]byte("); ok {
				arg, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
				if err != nil {
					tb.Fatalf("%s: %v", path, err)
				}
				args = append(args, []byte(arg))
			}
		}
		out = append(out, args)
	}
	return out
}

// codecSeedStreams are streams whose checkpoints and records seed the
// codec fuzz targets: hostile names, trust decay on and off, several
// batches.
func codecSeedStreams(tb testing.TB) []*Stream {
	var out []*Stream
	for _, decay := range []float64{0, 0.6} {
		st := NewShardedStream(1)
		if err := st.SetTrustDecay(decay); err != nil {
			tb.Fatal(err)
		}
		for b := 0; b < 3; b++ {
			var batch []BatchVote
			for i, name := range hostileNames {
				fact := fmt.Sprintf("%s#%d", name, b)
				batch = append(batch,
					BatchVote{Fact: fact, Source: name, Vote: truth.Affirm},
					BatchVote{Fact: fact, Source: hostileNames[(i+b+1)%len(hostileNames)], Vote: truth.Deny})
			}
			if _, err := st.AddBatch(batch); err != nil {
				tb.Fatal(err)
			}
		}
		out = append(out, st)
	}
	return out
}

// forgedVariants rewrites a JSON value the ways a hand-edited or
// re-marshaled file may differ from the writer's bytes: keys sorted (via
// a map), indented, with every string's letters \u-escaped.
func forgedVariants(value []byte) [][]byte {
	var out [][]byte
	var generic any
	if json.Unmarshal(value, &generic) == nil {
		if sorted, err := json.Marshal(generic); err == nil {
			out = append(out, sorted)
		}
	}
	var indented bytes.Buffer
	if json.Indent(&indented, value, "", "\t") == nil {
		out = append(out, indented.Bytes())
	}
	escaped := strings.NewReplacer("a", `\u0061`, "e", `\u0065`, "s", `\u0073`).Replace(string(value))
	return append(out, []byte(escaped))
}

// stateOf returns the state value of a checkpoint the oracle can parse.
func stateOf(data []byte) ([]byte, bool) {
	var env checkpointEnvelope
	if json.Unmarshal(data, &env) != nil || env.State == nil {
		return nil, false
	}
	return env.State, true
}

// FuzzCheckpointCodec holds the codec to the encoding/json oracle on
// checkpoint states. Each input is sealed under a fresh checksum, so
// fuzzing reaches the state decoder instead of dying at the CRC. The
// decoders must refuse together, at the same stage, or produce identical
// states — except for the codec's three documented extra refusals — and
// for every state that also validates, the codec must write the oracle's
// bytes for the restored stream. Run open-ended with
// `go test -run='^$' -fuzz=FuzzCheckpointCodec ./internal/core`.
func FuzzCheckpointCodec(f *testing.F) {
	var seeds [][]byte
	for _, args := range corpusInputs(f, "testdata/fuzz/FuzzCheckpoint") {
		seeds = append(seeds, args...)
	}
	for _, st := range append(codecSeedStreams(f), NewShardedStream(1)) {
		var buf bytes.Buffer
		if err := st.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	boundary := NewShardedStream(1)
	if _, err := boundary.AddBatch([]BatchVote{{Fact: "f", Source: "s", Vote: truth.Affirm}}); err != nil {
		f.Fatal(err)
	}
	for _, p := range []float64{5e-324, 1e-7, 1e-6, 0.5, math.Nextafter(1, 0)} {
		boundary.decided[0].Probability = p
		boundary.decided[0].Prediction = truth.LabelOf(p, truth.Threshold)
		boundary.state.credit[0] = p
		var buf bytes.Buffer
		if err := boundary.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	for _, data := range seeds {
		state, ok := stateOf(data)
		if !ok {
			f.Add(data)
			continue
		}
		f.Add(state)
		for _, v := range forgedVariants(state) {
			f.Add(v)
		}
	}
	for _, states := range [][]string{codecAcceptStates, codecRefusedStates, codecExtraRefusedStates} {
		for _, state := range states {
			f.Add([]byte(state))
		}
	}
	f.Fuzz(func(t *testing.T, state []byte) {
		cs := compareDecoders(t, seal(state), checkpointErrorKinds, parseCheckpoint, oracleParseCheckpoint)
		if cs == nil || cs.validate() != nil {
			return
		}
		st := NewShardedStream(1)
		install(st, cs)
		requireOracleBytes(t, st)
	})
}

// logRecordErrorKinds are the ways parseLogRecord refuses a payload.
var logRecordErrorKinds = []string{"does not decode", "carries trailing data"}

// FuzzLogRecordCodec is FuzzCheckpointCodec for log records: each payload
// is sealed in a record line under a fresh checksum and unframed, the
// decoders must agree as there, and for every record both accept the
// codec must write the oracle's payload. Run open-ended with
// `go test -run='^$' -fuzz=FuzzLogRecordCodec ./internal/core`.
func FuzzLogRecordCodec(f *testing.F) {
	for _, st := range codecSeedStreams(f) {
		line, _, err := st.batchRecord()
		if err != nil || line == nil {
			f.Fatalf("seed record: %q, %v", line, err)
		}
		payload := line[9 : len(line)-1]
		f.Add(payload)
		for _, v := range forgedVariants(payload) {
			f.Add(v)
		}
	}
	for _, payload := range []string{
		`{"batch":1,"moved":[],"decided":[]}`,
		`{"batch":1,"new":null,"moved":null,"decided":null}`,
		`{"decided":[{"prediction":"F","probability":0.25}],"moved":[{"count_f":1e-7,"count":2,"credit":5e-324,"id":0}],"new":[{"name_b64":"/w=="},{}],"batch":2}`,
		`{"batch":1,"moved":[],"decided":[]} {}`,
		`{"batch":1,"Moved":[],"decided":[]}`,
		`{"batch":1,"batch":2}`,
		`{"batch":1.5}`,
	} {
		f.Add([]byte(payload))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		line := append(appendChecksum(nil, payload), ' ')
		sealed, ok := unframe(append(line, payload...))
		if !ok {
			if len(payload) == 0 {
				return // no line frames an empty record
			}
			t.Fatalf("sealed record fails its checksum: %q", payload)
		}
		rec := compareDecoders(t, sealed, logRecordErrorKinds, parseLogRecord, oracleParseLogRecord)
		if rec == nil {
			return
		}
		var w jsonWriter
		rec.appendJSON(&w)
		want, err := oracleRecordPayload(rec)
		if w.err != nil || err != nil || !bytes.Equal(w.b, want) {
			t.Fatalf("record %+v:\ncodec  %s (%v)\noracle %s (%v)", rec, w.b, w.err, want, err)
		}
	})
}
