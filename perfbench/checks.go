package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"corroborate/internal/serve"
	"corroborate/internal/truth"
)

// checkAck verifies one ingest acknowledgment: the tenant and batch index
// it names, and its facts byte for byte against the reference stream's.
func checkAck(body []byte, wantBatch int, wantFacts []byte) error {
	var ack struct {
		Tenant string          `json:"tenant"`
		Batch  int             `json:"batch"`
		Facts  json.RawMessage `json:"facts"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("decoding ack: %w", err)
	}
	if ack.Tenant != tenant || ack.Batch != wantBatch {
		return fmt.Errorf("ack names tenant %q batch %d, want %q batch %d", ack.Tenant, ack.Batch, tenant, wantBatch)
	}
	if !bytes.Equal(ack.Facts, wantFacts) {
		return fmt.Errorf("ack facts differ from the reference stream's")
	}
	return nil
}

// checkCheckpoint verifies an on-disk checkpoint byte for byte.
func checkCheckpoint(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	at := 0
	for at < len(got) && at < len(want) && got[at] == want[at] {
		at++
	}
	return fmt.Errorf("checkpoint (%d bytes) differs from the reference (%d bytes) at byte %d", len(got), len(want), at)
}

// checkRepeat verifies that a repeated request got the answer it got the
// first time, byte for byte: the tenant's state does not change while
// query-aged runs.
func checkRepeat(first, got []byte) error {
	if !bytes.Equal(first, got) {
		return fmt.Errorf("answer differs from the first answer to the same request")
	}
	return nil
}

// checkQuery decodes one /query or /trust answer and compares it with the
// reference answer want, probabilities and trust bit for bit.
func checkQuery(body []byte, want any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	switch w := want.(type) {
	case serve.QueryResponse:
		var got serve.QueryResponse
		if err := dec.Decode(&got); err != nil {
			return fmt.Errorf("decoding answer: %w", err)
		}
		if got.Tenant != w.Tenant || got.Batches != w.Batches || got.Total != w.Total || len(got.Facts) != len(w.Facts) {
			return fmt.Errorf("answer has tenant %q, %d batches, total %d, %d facts; want %q, %d, %d, %d",
				got.Tenant, got.Batches, got.Total, len(got.Facts), w.Tenant, w.Batches, w.Total, len(w.Facts))
		}
		for i, f := range got.Facts {
			g := w.Facts[i]
			if f.Fact != g.Fact || f.Batch != g.Batch || f.Prediction != g.Prediction ||
				math.Float64bits(f.Probability) != math.Float64bits(g.Probability) {
				return fmt.Errorf("fact %d is %+v, want %+v", i, f, g)
			}
		}
	case serve.TrustResponse:
		var got serve.TrustResponse
		if err := dec.Decode(&got); err != nil {
			return fmt.Errorf("decoding answer: %w", err)
		}
		if got.Tenant != w.Tenant || got.Batches != w.Batches || len(got.Sources) != len(w.Sources) {
			return fmt.Errorf("answer has tenant %q, %d batches, %d sources; want %q, %d, %d",
				got.Tenant, got.Batches, len(got.Sources), w.Tenant, w.Batches, len(w.Sources))
		}
		for i, s := range got.Sources {
			g := w.Sources[i]
			if s.Source != g.Source || math.Float64bits(s.Trust) != math.Float64bits(g.Trust) {
				return fmt.Errorf("source %d is %+v, want %+v", i, s, g)
			}
		}
	default:
		return fmt.Errorf("no reference of type %T", want)
	}
	return nil
}

// sameResult verifies that a corroboration result repeats ref exactly:
// every probability, prediction and trust, bit for bit.
func sameResult(ref, got *truth.Result) error {
	if len(got.FactProb) != len(ref.FactProb) || len(got.Predictions) != len(ref.Predictions) || len(got.Trust) != len(ref.Trust) {
		return fmt.Errorf("result shape differs from the first run's")
	}
	for f, p := range got.FactProb {
		if math.Float64bits(p) != math.Float64bits(ref.FactProb[f]) {
			return fmt.Errorf("fact %d probability %v, first run had %v", f, p, ref.FactProb[f])
		}
		if got.Predictions[f] != ref.Predictions[f] {
			return fmt.Errorf("fact %d prediction %v, first run had %v", f, got.Predictions[f], ref.Predictions[f])
		}
	}
	for s, t := range got.Trust {
		if math.Float64bits(t) != math.Float64bits(ref.Trust[s]) {
			return fmt.Errorf("source %d trust %v, first run had %v", s, t, ref.Trust[s])
		}
	}
	return nil
}
