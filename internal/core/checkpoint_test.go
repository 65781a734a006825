package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"corroborate/internal/truth"
)

// checkpointBytes serializes st, failing the test on error.
func checkpointBytes(t *testing.T, st *Stream) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	requireOracleBytes(t, st)
	return buf.Bytes()
}

func TestCheckpointRoundTripEmptyStream(t *testing.T) {
	st := NewShardedStream(1)
	data := checkpointBytes(t, st)
	restored, err := RestoreShardedStream(bytes.NewReader(data), 1)
	if err != nil {
		t.Fatalf("RestoreShardedStream: %v", err)
	}
	if restored.Batches() != 0 || len(restored.Decided()) != 0 || len(restored.Trust()) != 0 {
		t.Fatal("restored empty stream is not empty")
	}
	if again := checkpointBytes(t, restored); !bytes.Equal(again, data) {
		t.Fatalf("re-encode not a fixed point:\n%s\n%s", data, again)
	}
	// An empty restored stream must still accept batches.
	if _, err := restored.AddBatch([]BatchVote{{Fact: "a", Source: "s", Vote: truth.Affirm}}); err != nil {
		t.Fatalf("AddBatch on restored empty stream: %v", err)
	}
}

func TestCheckpointDeterministicEncoding(t *testing.T) {
	st := NewShardedStream(1)
	feed(t, st, splitByFact(randomDataset(3, 5, 60), 3))
	if a, b := checkpointBytes(t, st), checkpointBytes(t, st); !bytes.Equal(a, b) {
		t.Fatal("two checkpoints of the same state differ")
	}
}

// TestCheckpointContinuationIdentity is the core guarantee: checkpoint after
// batch k, restore, replay the tail — the restored stream's final state is
// byte-identical to the uninterrupted one, for Stream and every shard count.
func TestCheckpointContinuationIdentity(t *testing.T) {
	d := randomDataset(11, 6, 120)
	batches := splitByFact(d, 5)
	for cut := 0; cut <= len(batches); cut++ {
		ref := NewShardedStream(1)
		var snap []byte
		for i, b := range batches {
			if i == cut {
				snap = checkpointBytes(t, ref)
			}
			if _, err := ref.AddBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if cut == len(batches) {
			snap = checkpointBytes(t, ref)
		}

		restored, err := RestoreShardedStream(bytes.NewReader(snap), 1)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		feed(t, restored, batches[cut:])
		requireStreamsIdentical(t, fmt.Sprintf("cut=%d plain", cut), restored, ref)

		for _, shards := range []int{1, 4} {
			ss, err := RestoreShardedStream(bytes.NewReader(snap), shards)
			if err != nil {
				t.Fatalf("cut=%d shards=%d: %v", cut, shards, err)
			}
			feed(t, ss, batches[cut:])
			requireStreamsIdentical(t, fmt.Sprintf("cut=%d shards=%d", cut, shards), ss, ref)
		}
	}
}

// TestCheckpointRejectsCorruption: every corruption mode must surface as an
// error, never a panic or a half-restored stream.
func TestCheckpointRejectsCorruption(t *testing.T) {
	st := NewShardedStream(1)
	feed(t, st, splitByFact(randomDataset(5, 4, 25), 2))
	valid := string(checkpointBytes(t, st))

	cases := []struct {
		name string
		data string
		want string // substring of the error
	}{
		{"empty", "", "envelope"},
		{"garbage", "\x00\x01\x02", "envelope"},
		{"not json object", `[1,2,3]`, "envelope"},
		{"unknown envelope field", `{"format":"corroborate/stream-checkpoint","version":1,"checksum":"0","state":{},"extra":1}`, "envelope"},
		{"trailing data", valid + `{"more":true}`, "trailing"},
		{"wrong format", strings.Replace(valid, "corroborate/stream-checkpoint", "somebody/else", 1), "not a stream checkpoint"},
		{"future version", strings.Replace(valid, `"version":1`, `"version":2`, 1), "version 2"},
		{"flipped state byte", strings.Replace(valid, `"strategy"`, `"sTrategy"`, 1), "checksum mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RestoreShardedStream(strings.NewReader(tc.data), 1)
			if err == nil {
				t.Fatal("corrupted checkpoint restored without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// forgeCheckpoint re-seals tampered state under a fresh valid checksum, so
// the semantic validator (not the CRC) is what must catch it.
func forgeCheckpoint(t *testing.T, mutate func(state string) string) []byte {
	t.Helper()
	st := NewShardedStream(1)
	feed(t, st, splitByFact(randomDataset(5, 4, 25), 2))
	var env checkpointEnvelope
	if err := json.Unmarshal(checkpointBytes(t, st), &env); err != nil {
		t.Fatal(err)
	}
	env.State = json.RawMessage(mutate(string(env.State)))
	env.Checksum = fmt.Sprintf("%08x", crc32.ChecksumIEEE(env.State))
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckpointRejectsInvalidState(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(state string) string
		want   string
	}{
		{"unknown strategy", func(s string) string {
			return strings.Replace(s, `"strategy":"IncEstScale"`, `"strategy":"IncEstWarp"`, 1)
		}, "not the scale profile"},
		{"another strategy", func(s string) string {
			return strings.Replace(s, `"strategy":"IncEstScale"`, `"strategy":"IncEstHeu"`, 1)
		}, "not the scale profile"},
		{"ablation key", func(s string) string {
			return strings.Replace(s, `"defer_band":0.12}`, `"defer_band":0.12,"soft_absorb":true}`, 1)
		}, "not the scale profile"},
		{"unknown state field", func(s string) string {
			return strings.Replace(s, `{"config"`, `{"surprise":1,"config"`, 1)
		}, "parsing checkpoint state"},
		{"credit above count", func(s string) string {
			return rewriteFirstSource(s, func(src *checkpointSource) { src.Credit = float64(src.Count) + 1 })
		}, "outside [0"},
		{"negative credit", func(s string) string {
			return rewriteFirstSource(s, func(src *checkpointSource) { src.Credit = -0.5 })
		}, "outside [0"},
		{"zero count", func(s string) string {
			return rewriteFirstSource(s, func(src *checkpointSource) { src.Count = 0 })
		}, "count 0 < 1"},
		{"duplicate source", func(s string) string {
			var cs map[string]json.RawMessage
			mustUnmarshal(s, &cs)
			var srcs []checkpointSource
			mustUnmarshal(string(cs["sources"]), &srcs)
			srcs = append(srcs, srcs[0])
			cs["sources"] = mustMarshal(srcs)
			return string(mustMarshal(cs))
		}, "duplicated"},
		{"probability out of range", func(s string) string {
			return rewriteFirstFact(s, func(cf *checkpointFact) { cf.Probability = 1.5 })
		}, "out of [0, 1]"},
		{"prediction contradicts probability", func(s string) string {
			return rewriteFirstFact(s, func(cf *checkpointFact) {
				cf.Probability = 0.9
				cf.Prediction = truth.False
			})
		}, "Eq. 2"},
		{"batch numbering gap", func(s string) string {
			return rewriteFirstFact(s, func(cf *checkpointFact) { cf.Batch = 3 })
		}, "batch"},
		// Every stream starts its sources at the same default trust; one
		// it never writes would decide a new source's facts differently.
		{"foreign default trust", func(s string) string {
			return strings.Replace(s, `"default_trust":0.9`, `"default_trust":0.3`, 1)
		}, "default trust 0.3"},
		{"decided without sources", func(s string) string {
			var cs map[string]json.RawMessage
			mustUnmarshal(s, &cs)
			delete(cs, "sources")
			return string(mustMarshal(cs))
		}, "disagree"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := forgeCheckpoint(t, tc.mutate)
			_, err := RestoreShardedStream(bytes.NewReader(data), 1)
			if err == nil {
				t.Fatal("invalid state restored without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// The encoding/json oracle's decode, validated, refuses it too.
			if cs, err := oracleParseCheckpoint(data); err == nil {
				if err := cs.validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("oracle-decoded state validates with %v, want an error mentioning %q", err, tc.want)
				}
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("oracle error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func rewriteFirstSource(state string, edit func(*checkpointSource)) string {
	var cs map[string]json.RawMessage
	mustUnmarshal(state, &cs)
	var srcs []checkpointSource
	mustUnmarshal(string(cs["sources"]), &srcs)
	edit(&srcs[0])
	cs["sources"] = mustMarshal(srcs)
	return string(mustMarshal(cs))
}

func rewriteFirstFact(state string, edit func(*checkpointFact)) string {
	var cs map[string]json.RawMessage
	mustUnmarshal(state, &cs)
	var facts []checkpointFact
	mustUnmarshal(string(cs["decided"]), &facts)
	edit(&facts[0])
	// Keep the Eq. 2 coherence of untouched entries; only the edited fact
	// is meant to violate an invariant.
	cs["decided"] = mustMarshal(facts)
	return string(mustMarshal(cs))
}

func mustUnmarshal(s string, v any) {
	if err := json.Unmarshal([]byte(s), v); err != nil {
		panic(err)
	}
}

func mustMarshal(v any) json.RawMessage {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return out
}

// TestCheckpointRestoreFreshSymbolTable pins the symbol-table contract of
// the columnar storage layer: a restored stream re-interns the checkpoint's
// source names onto a brand-new truth.Interner in checkpoint order, so the
// dense uint32 IDs — and with them vote signatures and every downstream
// accumulation order — coincide with the original stream's. Names are
// arbitrary byte strings; the batch below includes an empty name, a
// non-UTF-8 name, and JSON-hostile characters.
func TestCheckpointRestoreFreshSymbolTable(t *testing.T) {
	weird := []string{"", "\xff\xfe", "s\x00null", "quote\"brace}", "line\nbreak", "plain"}
	st := NewShardedStream(1)
	var batch []BatchVote
	for i, name := range weird {
		batch = append(batch,
			BatchVote{Fact: fmt.Sprintf("f%d", i), Source: name, Vote: truth.Affirm},
			BatchVote{Fact: "shared", Source: name, Vote: truth.Affirm},
		)
	}
	if _, err := st.AddBatch(batch); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	snap := checkpointBytes(t, st)

	restored, err := RestoreShardedStream(bytes.NewReader(snap), 1)
	if err != nil {
		t.Fatalf("RestoreShardedStream: %v", err)
	}
	// The fresh interner must have re-derived the exact table: same names,
	// same IDs, same length.
	if restored.symtab.Len() != st.symtab.Len() {
		t.Fatalf("restored symbol table holds %d names, want %d", restored.symtab.Len(), st.symtab.Len())
	}
	for i := 0; i < st.symtab.Len(); i++ {
		if got, want := restored.symtab.Name(uint32(i)), st.symtab.Name(uint32(i)); got != want {
			t.Fatalf("restored ID %d names %q, want %q", i, got, want)
		}
	}
	if again := checkpointBytes(t, restored); !bytes.Equal(again, snap) {
		t.Fatalf("re-encode after fresh-table restore not byte-identical:\n%s\n%s", snap, again)
	}
	// Continuation must be byte-identical too: the follow-up batch mixes the
	// weird sources with a new one, exercising both re-interned IDs and a
	// fresh assignment on each side.
	tail := []BatchVote{
		{Fact: "g0", Source: weird[1], Vote: truth.Deny},
		{Fact: "g0", Source: "late-arrival", Vote: truth.Affirm},
		{Fact: "\x80g1", Source: weird[0], Vote: truth.Affirm}, // non-UTF-8 fact name rides the decided log
	}
	feed(t, st, [][]BatchVote{tail})
	feed(t, restored, [][]BatchVote{tail})
	requireStreamsIdentical(t, "fresh-symbol-table continuation", restored, st)
	if a, b := checkpointBytes(t, restored), checkpointBytes(t, st); !bytes.Equal(a, b) {
		t.Fatal("continuation checkpoints diverge after fresh-table restore")
	}
}
