package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

	"corroborate/internal/truth"
)

// hostileNames are names whose JSON escaping differs between encoders
// that only mostly agree: HTML-escaped bytes, the JavaScript line
// separators, control bytes, quotes and backslashes, and bytes that are
// not UTF-8 (they travel as name_b64).
var hostileNames = []string{
	"<script>", "a&b", "x>y", "line\u2028sep", "para\u2029sep", "nul\x00", "bell\x07",
	"\b\f\n\r\t", "quote\"", `back\slash`, "\x7f", "é", "\xff\xfe", "\x80tail",
	"\ufffd", "", "emoji \U0001F600",
}

// boundaryFloats are where encoding/json switches float formats, and the
// extremes of float64.
var boundaryFloats = []float64{
	5e-324, 1e-7, 1e-6, 1e21, math.MaxFloat64, 9.999999999999999e-7, 1.0000000000000001e-6,
	9.999999999999999e20, 1e20, 123456789012345680000, 0.1, 1.0 / 3, -0.0, -1e-7, -1e21,
}

// TestCodecWritesOracleBytes: the codec writes the oracle's bytes for a
// stream whose names are hostile to JSON escaping, with and without trust
// decay, and for checkpoints and records whose floats sit on encoding/json's
// format boundaries.
func TestCodecWritesOracleBytes(t *testing.T) {
	for _, decay := range []float64{0, 0.7} {
		st := NewShardedStream(1)
		if err := st.SetTrustDecay(decay); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 3; b++ {
			var batch []BatchVote
			for i, name := range hostileNames {
				fact := fmt.Sprintf("%s#%d/%d", name, b, i)
				batch = append(batch,
					BatchVote{Fact: fact, Source: name, Vote: truth.Affirm},
					BatchVote{Fact: fact, Source: hostileNames[(i+b+1)%len(hostileNames)], Vote: []truth.Vote{truth.Affirm, truth.Deny}[(i+b)%2]},
				)
			}
			// feed checks the checkpoint and the batch's log record against
			// the oracle.
			feed(t, st, [][]BatchVote{batch})
		}

		st.mu.Lock()
		st.state.count[0], st.state.count[1] = -3, math.MaxInt
		for i, f := range boundaryFloats {
			st.state.credit[i%len(st.state.credit)] = f
			if st.state.fcount != nil {
				st.state.fcount[(i+1)%len(st.state.fcount)] = -f
			}
			st.decided[i].Probability = f
			st.decided[i].Batch = -i
		}
		st.mu.Unlock()
		requireOracleBytes(t, st)
	}

	rec := &logRecord{Batch: math.MinInt, Moved: []logAccum{}, Decided: nil}
	for i, f := range boundaryFloats {
		rec.New = append(rec.New, logName{Name: hostileNames[i%len(hostileNames)], NameB64: hostileNames[(i+3)%len(hostileNames)]})
		rec.Moved = append(rec.Moved, logAccum{ID: i, Credit: f, Count: -i, CountF: -f})
		rec.Decided = append(rec.Decided, logFact{Name: hostileNames[(i+5)%len(hostileNames)], Probability: f, Prediction: truth.Label(i % 3)})
	}
	for _, r := range []*logRecord{rec, {Moved: []logAccum{}, Decided: []logFact{}}, {}} {
		var w jsonWriter
		r.appendJSON(&w)
		want, err := oracleRecordPayload(r)
		if w.err != nil || err != nil || !bytes.Equal(w.b, want) {
			t.Fatalf("record %+v:\ncodec  %s (%v)\noracle %s (%v)", r, w.b, w.err, want, err)
		}
	}
}

// TestCodecRefusesWhatOracleCannotEncode: NaN, ±Inf and invalid labels
// are encode errors in the codec exactly where they are in the oracle.
func TestCodecRefusesWhatOracleCannotEncode(t *testing.T) {
	for i, poke := range []func(st *Stream){
		func(st *Stream) { st.state.credit[0] = math.NaN() },
		func(st *Stream) { st.decided[1].Probability = math.Inf(1) },
		func(st *Stream) { st.state.defaultTrust = math.NaN() },
		func(st *Stream) { st.decided[0].Prediction = truth.Label(9) },
	} {
		st := NewShardedStream(1)
		feed(t, st, splitByFact(randomDataset(3, 4, 20), 2))
		st.mu.Lock()
		poke(st)
		st.mu.Unlock()
		err := st.Checkpoint(io.Discard)
		_, oerr := oracleCheckpoint(st)
		if err == nil || oerr == nil {
			t.Errorf("poke %d: codec error %v, oracle error %v; want both", i, err, oerr)
		}
	}
	for i, rec := range []*logRecord{
		{Moved: []logAccum{{CountF: math.NaN()}}},
		{Decided: []logFact{{Probability: math.Inf(-1)}}},
		{Decided: []logFact{{Prediction: truth.Label(-4)}}},
	} {
		var w jsonWriter
		rec.appendJSON(&w)
		if _, err := oracleRecordPayload(rec); w.err == nil || err == nil {
			t.Errorf("record %d: codec error %v, oracle error %v; want both", i, w.err, err)
		}
	}
}

// seal wraps a state value in a valid envelope under its own checksum.
func seal(state []byte) []byte {
	out := []byte(`{"format":"corroborate/stream-checkpoint","version":1,"checksum":"`)
	out = appendChecksum(out, state)
	out = append(out, `","state":`...)
	out = append(out, state...)
	return append(out, '}')
}

// checkpointErrorKinds are the stages parseCheckpoint reports, in order.
var checkpointErrorKinds = []string{"envelope", "trailing", "not a stream checkpoint", "version", "checksum", "parsing checkpoint state"}

// errorKind names the first of kinds err's message contains.
func errorKind(err error, kinds []string) string {
	for _, k := range kinds {
		if strings.Contains(err.Error(), k) {
			return k
		}
	}
	return "unclassified: " + err.Error()
}

// knownKeys is every key the codec reads.
var knownKeys = [][]string{envelopeKeys, stateKeys, configKeys, sourceKeys, factKeys, recordKeys, nameKeys, accumKeys, logFactKeys}

// extraRefusal reports whether err is one of the three refusals the codec
// may make beyond the oracle, checked against the input it refused.
func extraRefusal(err error, input []byte) bool {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "repeated key"):
		return true
	case strings.Contains(msg, "invalid UTF-8"):
		return !utf8.Valid(input)
	case strings.Contains(msg, "unpaired surrogate"):
		return bytes.Contains(input, []byte(`\u`)) || bytes.Contains(input, []byte(`\U`))
	case strings.Contains(msg, "unknown field"):
		// The oracle took the key: it must match one case-insensitively.
		i := strings.Index(msg, "unknown field ")
		var key string
		if _, err := fmt.Sscanf(msg[i+len("unknown field "):], "%q", &key); err != nil {
			return false
		}
		for _, keys := range knownKeys {
			for _, k := range keys {
				if strings.EqualFold(key, k) {
					return true
				}
			}
		}
	}
	return false
}

// compareDecoders runs the codec's and the oracle's decoder on input and
// fails unless they agree: both refuse, at the same stage, or both accept
// with identical values — or the codec makes one of its three extra
// refusals, which may also come before the oracle's own refusal. It
// returns the codec's value when both accept.
func compareDecoders[T any](t *testing.T, input []byte, kinds []string, codec, oracle func([]byte) (*T, error)) *T {
	t.Helper()
	got, gerr := codec(input)
	want, werr := oracle(input)
	switch {
	case gerr == nil && werr == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoders disagree on %q:\ncodec  %+v\noracle %+v", input, got, want)
		}
		return got
	case gerr == nil:
		t.Fatalf("codec accepts what the oracle refuses (%v): %q", werr, input)
	case werr == nil:
		if !extraRefusal(gerr, input) {
			t.Fatalf("codec refuses what the oracle accepts (%v): %q", gerr, input)
		}
	default:
		// An extra refusal may come before the stage the oracle refuses at.
		if g, w := errorKind(gerr, kinds), errorKind(werr, kinds); g != w && !extraRefusal(gerr, input) {
			t.Fatalf("codec refuses at %q (%v), the oracle at %q (%v): %q", g, gerr, w, werr, input)
		}
	}
	return nil
}

// codecAcceptStates are checkpoint states the codec must read exactly as
// the oracle does.
var codecAcceptStates = []string{
	// Keys in any order, whitespace anywhere.
	`{"decided":[{"prediction":"true","probability":1,"name":"f","batch":0}],"sources":[{"count":1,"credit":1,"name":"s"}],"default_trust":0.9,"config":{"strategy":"IncEstScale"}}`,
	"{ \"config\" : { \"strategy\" : \"IncEstHeu\" , \"full_groups\" : true } ,\n\"sources\" : [ ] , \"decided\" : [ ] }",
	// Escapes in keys and values.
	`{"con\u0066ig":{"strategy":"IncEst\u0053cale"},"sources":[{"name":"\u00e9\ud83d\ude00\/\"\\\b\f\n\r\t\u2028<>&","credit":0.5,"count":1}]}`,
	// null leaves a field as it was, and makes a slice nil.
	`{"config":null,"default_trust":null,"sources":null,"decided":[null,{"name":null,"batch":null,"probability":null,"prediction":null}]}`,
	`null`,
	// Labels as truth.ParseLabel reads them.
	`{"decided":[{"prediction":"T"},{"prediction":" FALSE "},{"prediction":"-"},{"prediction":""},{"prediction":"unknown"}]}`,
	// Numbers at the grammar's edges.
	`{"default_trust":-0,"trust_decay":1E+2,"config":{"initial_trust":4.9e-324,"defer_band":1.7976931348623157e308},"decided":[{"batch":-0},{"batch":9223372036854775807}]}`,
	`{"sources":[{"credit":1e-400,"count":-9223372036854775808,"count_f":0.1e1}]}`,
	// Bools are literals.
	`{"config":{"soft_absorb":false,"flip_delta_h":true,"full_groups":null}}`,
	// Raw U+2028 and U+FFFD are valid UTF-8.
	"{\"sources\":[{\"name\":\"a\u2028b\ufffd\"}]}",
}

// codecRefusedStates are states both refuse, at the same stage.
var codecRefusedStates = []string{
	`{"config":{"strategy":"IncEstScale"},"surprise":1}`,
	`{"sources":[{"credit":"1"}]}`,
	`{"sources":[{"count":1.5}]}`,
	`{"sources":[{"count":1e2}]}`,
	`{"sources":[{"count":9223372036854775808}]}`,
	`{"sources":[{"credit":1e400}]}`,
	`{"sources":[{"credit":01}]}`,
	`{"sources":[{"credit":.5}]}`,
	`{"sources":[{"credit":1.}]}`,
	`{"sources":[{"credit":+1}]}`,
	`{"sources":[{"credit":-}]}`,
	`{"sources":[{"credit":1}]`,
	`{"sources":[{"credit":1},]}`,
	`{"sources":{}}`,
	`{"config":[]}`,
	`{"config":{"full_groups":1}}`,
	`{"config":{"full_groups":"true"}}`,
	`{"config":{"max_rounds":-0,"candidate_cap":9223372036854775807,"anchored_trust":null}}`,
	`{"decided":[{"prediction":"maybe"}]}`,
	`{"decided":[{"prediction":true}]}`,
	`{"decided":[{"name":"tab	raw"}]}`,
	`{"decided":[{"name":"bad \x escape"}]}`,
	`{"decided":[{"name":"short \u12"}]}`,
	`{"decided":[{"name":"open`,
	`{"config":nul}`,
	`{"config":nullx}`,
	`{} {}`,
	`"state"`,
	`[` + strings.Repeat(`[`, maxJSONDepth) + strings.Repeat(`]`, maxJSONDepth+1),
	``,
}

// codecExtraRefusedStates are the codec's three extra refusals: the oracle
// accepts them, the codec does not.
var codecExtraRefusedStates = []string{
	`{"Config":{"strategy":"IncEstScale"}}`,
	`{"config":{"STRATEGY":"IncEstScale"}}`,
	`{"sources":[{"nam\u0045":"s"}]}`,
	`{"config":{"strategy":"IncEstScale"},"config":{"strategy":"IncEstHeu"}}`,
	`{"sources":[{"credit":1,"credit":2}]}`,
	"{\"sources\":[{\"name\":\"\xff\"}]}",
	"{\"sources\":[{\"name\":\"\xed\xa0\x80\"}]}",
	`{"sources":[{"name":"\ud800"}]}`,
	`{"sources":[{"name":"\udc00\ud800"}]}`,
	`{"sources":[{"name":"\ud800\u0041"}]}`,
}

// TestCodecDecodesAsOracle: the hand-written states above, sealed under
// their checksums.
func TestCodecDecodesAsOracle(t *testing.T) {
	for _, state := range codecAcceptStates {
		if got := compareDecoders(t, seal([]byte(state)), checkpointErrorKinds, parseCheckpoint, oracleParseCheckpoint); got == nil {
			t.Errorf("refused, want accepted: %s", state)
		}
	}
	// Whitespace around the envelope's tokens; the checksum covers the
	// state value alone.
	state := []byte(`{ "config" : { "strategy" : "IncEstPS" } }`)
	spaced := fmt.Sprintf(" \r\n{ \"state\" :\t%s , \"checksum\" : \"%s\" ,\"version\": 1 , \"format\" : \"corroborate\\/stream-checkpoint\" }\n\n", state, checksum(state))
	if got := compareDecoders(t, []byte(spaced), checkpointErrorKinds, parseCheckpoint, oracleParseCheckpoint); got == nil {
		t.Errorf("refused, want accepted: %s", spaced)
	}
	for _, state := range codecRefusedStates {
		data := seal([]byte(state))
		compareDecoders(t, data, checkpointErrorKinds, parseCheckpoint, oracleParseCheckpoint)
		if _, err := oracleParseCheckpoint(data); err == nil {
			t.Errorf("oracle accepts %s", state)
		}
	}
	for _, state := range codecExtraRefusedStates {
		data := seal([]byte(state))
		if _, err := oracleParseCheckpoint(data); err != nil {
			t.Errorf("oracle refuses %s: %v", state, err)
		}
		if _, err := parseCheckpoint(data); err == nil || !extraRefusal(err, data) {
			t.Errorf("codec error %v for %s, want a documented extra refusal", err, state)
		}
	}
}

// TestCheckpointErrorPrecedence: the single pass reports errors in the
// oracle's order — the checksum before a state that is well-formed JSON
// but not a checkpoint state, and malformed JSON anywhere as an envelope
// error.
func TestCheckpointErrorPrecedence(t *testing.T) {
	for _, tc := range []struct{ data, want string }{
		{`{"format":"corroborate/stream-checkpoint","version":1,"checksum":"00000000","state":{"sTrategy":1}}`, "checksum mismatch"},
		{`{"state":{"sources":[{"credit":"x"}]},"checksum":"00000000","version":1,"format":"corroborate/stream-checkpoint"}`, "checksum mismatch"},
		{`{"format":"corroborate/stream-checkpoint","version":1,"checksum":"00000000","state":{"sources":[}}`, "envelope"},
		{`{"format":"corroborate/stream-checkpoint","version":2,"checksum":"00000000","state":{"config":[]}}`, "version 2"},
		{`{"format":"corroborate/stream-checkpoint","version":1,"checksum":"00000000","state":{"config":[]}} x`, "trailing"},
		{`{"format":"corroborate/stream-checkpoint","version":"1","checksum":"00000000","state":{}} x`, "envelope"},
		{`{"format":"corroborate/stream-checkpoint","version":1,"checksum":"00000000"}`, "parsing checkpoint state"},
		{`null`, "not a stream checkpoint"},
	} {
		_, err := parseCheckpoint([]byte(tc.data))
		_, oerr := oracleParseCheckpoint([]byte(tc.data))
		if err == nil || oerr == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(oerr.Error(), tc.want) {
			t.Errorf("%s:\ncodec  %v\noracle %v\nwant %q from both", tc.data, err, oerr, tc.want)
		}
	}
}

// TestValidateAllocsIndependentOfFacts: validate allocates for its map of
// source names, not per element — the error labels are built only on the
// error path.
func TestValidateAllocsIndependentOfFacts(t *testing.T) {
	_, data := agedCheckpoint(t)
	cs, err := parseCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	cs.Decided = cs.Decided[:10000]
	if err := cs.validate(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := cs.validate(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("validate of %d sources and %d facts: %.0f allocations", len(cs.Sources), len(cs.Decided), allocs)
	if allocs > float64(len(cs.Sources))/10 {
		t.Fatalf("validate allocates %.0f times for %d sources and %d facts", allocs, len(cs.Sources), len(cs.Decided))
	}
}

// TestCheckpointCodecAllocationBytes: on the aged stream's ~1.8 MB
// checkpoint, one restore from disk allocates under 8× the checkpoint's
// size and one checkpoint under 4× (encoding/json took ~17× and ~7×).
func TestCheckpointCodecAllocationBytes(t *testing.T) {
	st, data := agedCheckpoint(t)
	if len(data) == 0 {
		t.Fatal("empty checkpoint")
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	allocated := func(f func() error) float64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(data))
	}
	restore := allocated(func() error {
		_, report, err := NewCheckpointSink(path).Restore(1)
		if err == nil && !report.Resumed {
			err = errors.New("aged checkpoint not resumed")
		}
		return err
	})
	encode := allocated(func() error { return st.Checkpoint(io.Discard) })
	t.Logf("%d-byte checkpoint: restore allocates %.2f×, checkpoint %.2f×", len(data), restore, encode)
	if restore >= 8 || encode >= 4 {
		t.Fatalf("restore allocates %.2f× the checkpoint (want < 8), checkpoint %.2f× (want < 4)", restore, encode)
	}
}
