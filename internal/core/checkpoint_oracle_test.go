package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// The encoding/json oracle.
//
// Until the single-pass codec (checkpoint_codec.go) replaced it, the
// checkpoint and its log records were encoded by json.Marshal of the
// tagged types and decoded by a json.Decoder with DisallowUnknownFields.
// That implementation is kept here, unchanged, as the definition the codec
// is held to: the codec must write the oracle's bytes, and accept only
// what the oracle accepts, to the same values (see checkpoint_codec.go for
// the three inputs it refuses beyond the oracle).

type checkpointEnvelope struct {
	Format   string          `json:"format"`
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"`
	State    json.RawMessage `json:"state"`
}

// oracleCheckpoint encodes st's checkpoint as encoding/json did.
func oracleCheckpoint(st *Stream) ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cs := checkpointState{Config: streamConfig}
	if st.initDone {
		cs.DefaultTrust = st.state.defaultTrust
	}
	cs.TrustDecay = st.decay
	for i := 0; i < st.symtab.Len(); i++ {
		plain, b64 := encodeName(st.symtab.Name(uint32(i)))
		credit, count, countF := st.accumulators(i)
		cs.Sources = append(cs.Sources, checkpointSource{
			Name: plain, NameB64: b64, Credit: credit, Count: count, CountF: countF,
		})
	}
	for _, sf := range st.decided {
		plain, b64 := encodeName(sf.Name)
		cs.Decided = append(cs.Decided, checkpointFact{
			Name:        plain,
			NameB64:     b64,
			Batch:       sf.Batch,
			Probability: sf.Probability,
			Prediction:  sf.Prediction,
		})
	}
	payload, err := json.Marshal(cs)
	if err != nil {
		return nil, fmt.Errorf("core: encoding checkpoint state: %w", err)
	}
	env := checkpointEnvelope{
		Format:   checkpointFormat,
		Version:  checkpointVersion,
		Checksum: checksum(payload),
		State:    payload,
	}
	out, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("core: encoding checkpoint envelope: %w", err)
	}
	return append(out, '\n'), nil
}

// oracleParseCheckpoint is parseCheckpoint as encoding/json did it.
func oracleParseCheckpoint(data []byte) (*checkpointState, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var env checkpointEnvelope
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("core: parsing checkpoint envelope: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("core: checkpoint carries trailing data")
	}
	if env.Format != checkpointFormat {
		return nil, fmt.Errorf("core: not a stream checkpoint (format %q)", env.Format)
	}
	if env.Version != checkpointVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d (this build reads %d)", env.Version, checkpointVersion)
	}
	if want := checksum(env.State); env.Checksum != want {
		return nil, fmt.Errorf("core: checkpoint checksum mismatch (%s recorded, %s computed): corrupted state", env.Checksum, want)
	}
	sdec := json.NewDecoder(bytes.NewReader(env.State))
	sdec.DisallowUnknownFields()
	var cs checkpointState
	if err := sdec.Decode(&cs); err != nil {
		return nil, fmt.Errorf("core: parsing checkpoint state: %w", err)
	}
	return &cs, nil
}

// oracleRecordPayload is a log record's JSON payload as encoding/json
// wrote it.
func oracleRecordPayload(rec *logRecord) ([]byte, error) {
	return json.Marshal(rec)
}

// oracleParseLogRecord is parseLogRecord as encoding/json did it.
func oracleParseLogRecord(payload []byte) (*logRecord, error) {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var rec logRecord
	if err := dec.Decode(&rec); err != nil {
		return nil, fmt.Errorf("does not decode: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("carries trailing data")
	}
	return &rec, nil
}

// oracleCheckedFacts caps the streams requireOracleBytes compares, so the
// check stays cheap on the 10⁵-fact streams some tests age.
const oracleCheckedFacts = 2000

// requireOracleBytes asserts that st's checkpoint, and the log record of
// its newest batch, are the oracle's bytes. feed and checkpointBytes call
// it, so every stream the package's tests build is checked after every
// batch while it holds at most oracleCheckedFacts decided facts.
func requireOracleBytes(t *testing.T, st *Stream) {
	t.Helper()
	if len(st.Decided()) > oracleCheckedFacts {
		return
	}
	var got bytes.Buffer
	if err := st.Checkpoint(&got); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	want, err := oracleCheckpoint(st)
	if err != nil {
		t.Fatalf("oracle checkpoint: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("checkpoint differs from the oracle's:\n%s\n%s", got.Bytes(), want)
	}
	line, _, err := st.batchRecord()
	if err != nil {
		t.Fatalf("log record: %v", err)
	}
	rec := st.newestRecord()
	if line == nil || rec == nil {
		if line != nil || rec != nil {
			t.Fatalf("batchRecord wrote %q for record %+v", line, rec)
		}
		return
	}
	payload, err := oracleRecordPayload(rec)
	if err != nil {
		t.Fatalf("oracle log record: %v", err)
	}
	if want := checksum(payload) + " " + string(payload) + "\n"; string(line) != want {
		t.Fatalf("log record differs from the oracle's:\n%s%s", line, want)
	}
}

// TestCodecKeysMatchTags: the codec's key lists are the json tags of the
// types they decode, in field order — the order the writer emits them in.
func TestCodecKeysMatchTags(t *testing.T) {
	for _, tc := range []struct {
		v    any
		keys []string
	}{
		{checkpointEnvelope{}, envelopeKeys},
		{checkpointState{}, stateKeys},
		{checkpointConfig{}, configKeys},
		{checkpointSource{}, sourceKeys},
		{checkpointFact{}, factKeys},
		{logRecord{}, recordKeys},
		{logName{}, nameKeys},
		{logAccum{}, accumKeys},
		{logFact{}, logFactKeys},
	} {
		typ := reflect.TypeOf(tc.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, tc.keys) {
			t.Errorf("%s: codec keys %q, json tags %q", typ.Name(), tc.keys, tags)
		}
	}
}
