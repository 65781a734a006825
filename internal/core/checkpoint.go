package core

import (
	"encoding/base64"
	"fmt"
	"io"
	"math"
	"unicode/utf8"

	"corroborate/internal/truth"
)

// Checkpoint/restore subsystem.
//
// A checkpoint is a complete snapshot of a stream's corroboration state —
// configuration, source table with the multi-value trust accumulators, and
// the decided-fact log — taken after any batch. Restoring it into a fresh
// Stream, with any shard count, continues the stream exactly: every
// subsequent AddBatch produces byte-identical output to the
// uninterrupted stream, because the trust credits are serialized as exact
// float64 round-trips and the source table preserves interning order (the
// order defines vote signatures).
//
// Wire format: a one-object JSON envelope
//
//	{"format":"corroborate/stream-checkpoint","version":1,
//	 "checksum":"<crc32 (IEEE) hex of the state bytes>","state":{...}}
//
// encoded compactly and deterministically (same state ⇒ same bytes) by the
// single-pass codec in checkpoint_codec.go. The decoder is strict: unknown
// fields, trailing data, a foreign format tag, an unsupported version, a
// checksum mismatch, or any semantic inconsistency in the state (credits
// outside [0, count], a prediction disagreeing with its probability under
// Eq. 2, a gap in the batch numbering, …) is an error — never a panic, and
// never a silently half-restored stream.

const (
	checkpointFormat  = "corroborate/stream-checkpoint"
	checkpointVersion = 1
)

// The json tags name the state's wire fields. The codec writes and reads
// them by hand (checkpoint_codec.go); the tags are what the encoding/json
// oracle in the tests marshals by.

type checkpointState struct {
	Config checkpointConfig `json:"config"`
	// DefaultTrust is the σ0(S) the trust state was initialized with; it
	// only matters once the stream has seen a batch.
	DefaultTrust float64 `json:"default_trust,omitempty"`
	// TrustDecay is the per-batch decay factor λ; absent (0) means the
	// stream runs without decay, which keeps pre-decay checkpoints and
	// decay-disabled checkpoints byte-identical.
	TrustDecay float64            `json:"trust_decay,omitempty"`
	Sources    []checkpointSource `json:"sources,omitempty"`
	Decided    []checkpointFact   `json:"decided,omitempty"`
}

// checkpointConfig is the IncEstimate a stream runs, as the state's
// "config" object. Every stream runs the scale profile, so a valid
// checkpoint carries exactly streamConfig, which the writer emits as
// streamConfigJSON; the decoder still reads all six keys, and validate
// refuses any other value.
type checkpointConfig struct {
	Strategy     string  `json:"strategy"`
	InitialTrust float64 `json:"initial_trust,omitempty"`
	FullGroups   bool    `json:"full_groups,omitempty"`
	FlipDeltaH   bool    `json:"flip_delta_h,omitempty"`
	SoftAbsorb   bool    `json:"soft_absorb,omitempty"`
	DeferBand    float64 `json:"defer_band,omitempty"`
}

var streamConfig = checkpointConfig{Strategy: "IncEstScale", DeferBand: 0.12}

const streamConfigJSON = `{"strategy":"IncEstScale","defer_band":0.12}`

// Source and fact names are arbitrary byte strings (the symbol table
// interns anything), but JSON strings must be valid UTF-8 — encoding/json
// silently rewrites invalid bytes to U+FFFD, which would corrupt the
// restored symbol table and with it every vote signature. Names therefore
// travel as a canonical field pair: valid UTF-8 in "name", anything else
// base64 in "name_b64". The decoder enforces canonical form (never both
// fields, never base64 that decodes to valid UTF-8), keeping the encoding
// deterministic and re-encode a fixed point.

type checkpointSource struct {
	Name    string  `json:"name,omitempty"`
	NameB64 string  `json:"name_b64,omitempty"`
	Credit  float64 `json:"credit"`
	Count   int     `json:"count"`
	// CountF is the decayed (fractional) evaluation mass, present exactly
	// when the stream runs with trust decay; Count stays the undecayed
	// integer tally either way.
	CountF float64 `json:"count_f,omitempty"`
}

type checkpointFact struct {
	Name        string      `json:"name,omitempty"`
	NameB64     string      `json:"name_b64,omitempty"`
	Batch       int         `json:"batch"`
	Probability float64     `json:"probability"`
	Prediction  truth.Label `json:"prediction"`
}

// encodeName splits a caller-supplied name into the canonical field pair.
func encodeName(name string) (plain, b64 string) {
	if utf8.ValidString(name) {
		return name, ""
	}
	return "", base64.StdEncoding.EncodeToString([]byte(name))
}

// decodeName rebuilds a name from the field pair, rejecting non-canonical
// encodings. what and i name the element in errors.
func decodeName(plain, b64, what string, i int) (string, error) {
	if b64 == "" {
		return plain, nil
	}
	if plain != "" {
		return "", fmt.Errorf("%s %d carries both name and name_b64", what, i)
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return "", fmt.Errorf("%s %d name_b64: %w", what, i, err)
	}
	if utf8.Valid(raw) {
		return "", fmt.Errorf("%s %d name_b64 encodes valid UTF-8; canonical form uses name", what, i)
	}
	return string(raw), nil
}

// Checkpoint serializes the stream's full state to w. The encoding is
// deterministic: checkpointing the same state twice produces identical
// bytes, and encode→decode→re-encode is a fixed point (FuzzCheckpoint).
func (st *Stream) Checkpoint(w io.Writer) error {
	data, err := st.encode()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// encode returns the stream's checkpoint bytes.
func (st *Stream) encode() ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	w := jsonWriter{b: make([]byte, 0, st.checkpointSizeHint())}
	w.raw(`{"format":`)
	w.str(checkpointFormat)
	w.raw(`,"version":`)
	w.int(checkpointVersion)
	w.raw(`,"checksum":"`)
	sumAt := len(w.b)
	w.raw(`00000000","state":`)
	stateAt := len(w.b)
	w.raw(`{"config":` + streamConfigJSON)
	if st.initDone {
		optFloat(&w, `,"default_trust":`, st.state.defaultTrust)
	}
	optFloat(&w, `,"trust_decay":`, st.decay)
	// Sources are emitted in symbol-table ID order: the interning order
	// defines vote signatures, so preserving it is what lets the restored
	// stream continue byte-identically.
	for i := 0; i < st.symtab.Len(); i++ {
		if i == 0 {
			w.raw(`,"sources":[{`)
		} else {
			w.raw(`,{`)
		}
		if w.name(encodeName(st.symtab.Name(uint32(i)))) {
			w.raw(",")
		}
		credit, count, countF := st.accumulators(i)
		w.raw(`"credit":`)
		w.float(credit)
		w.raw(`,"count":`)
		w.int(count)
		optFloat(&w, `,"count_f":`, countF)
		w.raw("}")
	}
	if st.symtab.Len() > 0 {
		w.raw("]")
	}
	for i, sf := range st.decided {
		if i == 0 {
			w.raw(`,"decided":[{`)
		} else {
			w.raw(`,{`)
		}
		if w.name(encodeName(sf.Name)) {
			w.raw(",")
		}
		w.raw(`"batch":`)
		w.int(sf.Batch)
		w.raw(`,"probability":`)
		w.float(sf.Probability)
		w.raw(`,"prediction":`)
		w.label(sf.Prediction)
		w.raw("}")
	}
	if len(st.decided) > 0 {
		w.raw("]")
	}
	w.raw("}")
	if w.err != nil {
		return nil, fmt.Errorf("core: encoding checkpoint state: %w", w.err)
	}
	appendChecksum(w.b[sumAt:sumAt], w.b[stateAt:])
	w.raw("}\n")
	return w.b, nil
}

// checkpointSizeHint sizes the buffer a checkpoint is encoded into, so
// encoding it allocates once: the names plus ~100 bytes per source and
// per decided fact, enough for the keys and numbers of each.
func (st *Stream) checkpointSizeHint() int {
	n := 256 + 100*(st.symtab.Len()+len(st.decided))
	for i := 0; i < st.symtab.Len(); i++ {
		n += len(st.symtab.Name(uint32(i)))
	}
	for _, sf := range st.decided {
		n += len(sf.Name)
	}
	return n
}

// optFloat writes an omitempty field — key holds its leading comma and
// name — when its value is not the zero value.
func optFloat(w *jsonWriter, key string, f float64) {
	if f != 0 {
		w.raw(key)
		w.float(f)
	}
}

// accumulators returns source i's credit, integer count and — with trust
// decay on — decayed mass, as checkpoints and log records carry them.
// Callers hold st.mu.
func (st *Stream) accumulators(i int) (credit float64, count int, countF float64) {
	credit, count = st.state.credit[i], st.state.count[i]
	if st.state.fcount != nil {
		countF = st.state.fcount[i]
	}
	return credit, count, countF
}

// checksum is the CRC-32 (IEEE) of a checkpoint state or log record
// payload, as the 8-digit lower-case hex string both formats carry.
func checksum(payload []byte) string {
	return string(appendChecksum(nil, payload))
}

// RestoreShardedStream reads a checkpoint and returns a fresh Stream with
// the given shard count that continues the checkpointed stream exactly.
// Checkpoints are shard-agnostic: the same checkpoint restores into any
// shard count with byte-identical continuation.
func RestoreShardedStream(r io.Reader, shards int) (*Stream, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	st := NewShardedStream(shards)
	if _, err := restoreInto(st, data, nil); err != nil {
		return nil, err
	}
	return st, nil
}

// restoreInto decodes a base checkpoint, replays its log (nil for none)
// onto it, validates the result once, and installs it into st, which must
// be freshly constructed. It reports whether the log ended in an ignored
// torn record. Any error leaves st unusable; callers discard it.
func restoreInto(st *Stream, base, log []byte) (bool, error) {
	cs, err := parseCheckpoint(base)
	if err != nil {
		return false, err
	}
	torn, err := cs.replayLog(log)
	if err != nil {
		return false, fmt.Errorf("core: checkpoint log: %w", err)
	}
	if err := cs.validate(); err != nil {
		return false, fmt.Errorf("core: invalid checkpoint: %w", err)
	}
	install(st, cs)
	return torn, nil
}

// install loads a validated checkpoint state into st, which must be
// freshly constructed.
func install(st *Stream, cs *checkpointState) {
	st.decay = cs.TrustDecay
	if len(cs.Sources) > 0 {
		st.state = newTrustState(len(cs.Sources), cs.DefaultTrust)
		if st.decay != 0 {
			st.state.enableDecay(st.decay)
		}
		st.initDone = true
		// Re-intern onto the fresh symbol table in checkpoint order; the
		// assigned IDs are dense and sequential because validate() already
		// rejected duplicate names.
		for i, src := range cs.Sources {
			st.symtab.Intern(src.Name)
			st.state.credit[i] = src.Credit
			st.state.count[i] = src.Count
			if st.state.fcount != nil {
				st.state.fcount[i] = src.CountF
			}
		}
	}
	st.decided = make([]StreamFact, 0, len(cs.Decided))
	for _, cf := range cs.Decided {
		st.decided = append(st.decided, StreamFact{
			Name:        cf.Name,
			Batch:       cf.Batch,
			Probability: cf.Probability,
			Prediction:  cf.Prediction,
		})
	}
}

// parseCheckpoint strictly parses a checkpoint in one pass and verifies
// its checksum; the caller runs validate() on the state before installing
// it. Its checks, and the order it reports them in, are encoding/json's:
// malformed JSON or a bad envelope field, trailing data, the format tag,
// the version, the checksum over the state value's bytes, and only then
// whether the state is a checkpoint state — so a state it cannot parse is
// skipped as plain JSON until the checksum has been checked.
func parseCheckpoint(data []byte) (*checkpointState, error) {
	r := &jsonReader{data: data}
	var (
		format, sum string
		version     int
		cs          checkpointState
		state       []byte
		stateErr    error
	)
	r.ws()
	err := r.object(envelopeKeys, func(k int) error {
		switch k {
		case 0:
			return r.string(&format)
		case 1:
			return r.int(&version)
		case 2:
			return r.string(&sum)
		}
		start := r.off
		if stateErr = r.state(&cs); stateErr != nil {
			r.off = start
			if err := r.skip(1); err != nil {
				return err
			}
		}
		state = data[start:r.off]
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: parsing checkpoint envelope: %w", err)
	}
	if r.ws(); r.off != len(data) {
		return nil, fmt.Errorf("core: checkpoint carries trailing data")
	}
	if format != checkpointFormat {
		return nil, fmt.Errorf("core: not a stream checkpoint (format %q)", format)
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d (this build reads %d)", version, checkpointVersion)
	}
	if want := checksum(state); sum != want {
		return nil, fmt.Errorf("core: checkpoint checksum mismatch (%s recorded, %s computed): corrupted state", sum, want)
	}
	if state == nil {
		stateErr = fmt.Errorf("no state")
	}
	if stateErr != nil {
		return nil, fmt.Errorf("core: parsing checkpoint state: %w", stateErr)
	}
	return &cs, nil
}

func (r *jsonReader) state(cs *checkpointState) error {
	return r.object(stateKeys, func(k int) error {
		switch k {
		case 0:
			return r.config(&cs.Config)
		case 1:
			return r.float(&cs.DefaultTrust)
		case 2:
			return r.float(&cs.TrustDecay)
		case 3:
			return list(r, &cs.Sources, r.source, 0)
		}
		// Sized from the bytes left (a decided fact takes ~50 bytes plus
		// its name), the log is allocated about once instead of growing
		// a few hundred times.
		return list(r, &cs.Decided, r.fact, (len(r.data)-r.off)/64)
	})
}

func (r *jsonReader) config(c *checkpointConfig) error {
	return r.object(configKeys, func(k int) error {
		switch k {
		case 0:
			return r.string(&c.Strategy)
		case 1:
			return r.float(&c.InitialTrust)
		case 2:
			return r.bool(&c.FullGroups)
		case 3:
			return r.bool(&c.FlipDeltaH)
		case 4:
			return r.bool(&c.SoftAbsorb)
		}
		return r.float(&c.DeferBand)
	})
}

func (r *jsonReader) source(src *checkpointSource) error {
	return r.object(sourceKeys, func(k int) error {
		switch k {
		case 0:
			return r.string(&src.Name)
		case 1:
			return r.string(&src.NameB64)
		case 2:
			return r.float(&src.Credit)
		case 3:
			return r.int(&src.Count)
		}
		return r.float(&src.CountF)
	})
}

func (r *jsonReader) fact(cf *checkpointFact) error {
	return r.object(factKeys, func(k int) error {
		switch k {
		case 0:
			return r.string(&cf.Name)
		case 1:
			return r.string(&cf.NameB64)
		case 2:
			return r.int(&cf.Batch)
		case 3:
			return r.float(&cf.Probability)
		}
		return r.label(&cf.Prediction)
	})
}

// validate enforces every invariant a live stream maintains, so a restored
// stream is indistinguishable from one that never stopped.
func (cs *checkpointState) validate() error {
	if cs.Config != streamConfig {
		return fmt.Errorf("config %+v is not the scale profile every stream runs", cs.Config)
	}
	// Every stream starts its trust state at streamDefaultTrust, and the
	// float round-trips bit-exactly, so any other bits were never written.
	if len(cs.Sources) > 0 && math.Float64bits(cs.DefaultTrust) != math.Float64bits(streamDefaultTrust) {
		return fmt.Errorf("default trust %v is not the %v every stream starts from", cs.DefaultTrust, streamDefaultTrust)
	}
	// A recorded decay factor must be a genuine λ ∈ (0, 1): SetTrustDecay
	// normalizes both off switches (0 and 1) to an absent field, so a
	// checkpoint carrying 1, a negative, or NaN was never written by this
	// encoder.
	if cs.TrustDecay != 0 && (bad01(cs.TrustDecay) || cs.TrustDecay <= 0 || cs.TrustDecay >= 1) {
		return fmt.Errorf("trust decay %v outside (0, 1)", cs.TrustDecay)
	}
	seen := make(map[string]bool, len(cs.Sources))
	for i, src := range cs.Sources {
		// Decode the canonical name pair and normalize in place: after a
		// successful validate, .Name holds the true byte string and
		// restoreInto never re-derives it.
		name, err := decodeName(src.Name, src.NameB64, "source", i)
		if err != nil {
			return err
		}
		cs.Sources[i].Name, cs.Sources[i].NameB64 = name, ""
		src.Name = name
		if seen[src.Name] {
			return fmt.Errorf("source %q duplicated", src.Name)
		}
		seen[src.Name] = true
		// Every interned source has corroborated at least one fact, and a
		// credit is a sum of per-fact values in [0, 1].
		if src.Count < 1 {
			return fmt.Errorf("source %d (%q) has count %d < 1", i, src.Name, src.Count)
		}
		// The credit bound depends on the decay mode: without decay the
		// evaluation mass is the integer count; with decay both credit and
		// mass shrink by the same λ each batch (rounding is monotone, so
		// credit ≤ mass survives every scale and absorb exactly).
		bound := float64(src.Count)
		if cs.TrustDecay != 0 {
			// Zero mass is legal: λ^k underflows after enough batches, and
			// the trust falls back to the default exactly as a live stream's
			// would.
			if math.IsNaN(src.CountF) || src.CountF < 0 || src.CountF > float64(src.Count) {
				return fmt.Errorf("source %d (%q) has decayed mass %v outside [0, %d]", i, src.Name, src.CountF, src.Count)
			}
			bound = src.CountF
		} else if src.CountF != 0 {
			return fmt.Errorf("source %d (%q) carries decayed mass %v but the stream has no trust decay", i, src.Name, src.CountF)
		}
		if math.IsNaN(src.Credit) || src.Credit < 0 || src.Credit > bound {
			return fmt.Errorf("source %d (%q) has credit %v outside [0, %v]", i, src.Name, src.Credit, bound)
		}
	}
	if (len(cs.Sources) == 0) != (len(cs.Decided) == 0) {
		return fmt.Errorf("source table and decided log disagree about whether any batch ran")
	}
	prevBatch := 0
	for i, cf := range cs.Decided {
		name, err := decodeName(cf.Name, cf.NameB64, "decided fact", i)
		if err != nil {
			return err
		}
		cs.Decided[i].Name, cs.Decided[i].NameB64 = name, ""
		cf.Name = name
		if bad01(cf.Probability) {
			return fmt.Errorf("decided fact %d (%q) has probability %v out of [0, 1]", i, cf.Name, cf.Probability)
		}
		if want := truth.LabelOf(cf.Probability, truth.Threshold); cf.Prediction != want {
			return fmt.Errorf("decided fact %d (%q) predicts %v but its probability %v decides %v under Eq. 2",
				i, cf.Name, cf.Prediction, cf.Probability, want)
		}
		switch {
		case i == 0 && cf.Batch != 0:
			return fmt.Errorf("decided log starts at batch %d, want 0", cf.Batch)
		case i > 0 && (cf.Batch < prevBatch || cf.Batch > prevBatch+1):
			return fmt.Errorf("decided fact %d (%q) jumps from batch %d to %d", i, cf.Name, prevBatch, cf.Batch)
		}
		prevBatch = cf.Batch
	}
	return nil
}

// bad01 reports whether x is NaN or outside the unit interval.
func bad01(x float64) bool {
	return math.IsNaN(x) || x < 0 || x > 1
}
