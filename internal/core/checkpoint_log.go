package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"corroborate/internal/truth"
)

// Checkpoint log records.
//
// Between two full checkpoints a CheckpointSink makes each batch durable
// as one appended record. A batch, being one macro time point, changes
// only three things, and a record holds exactly those:
//
//   - the sources it interned, in interning order ("new");
//   - the post-batch absolute credit/count/count_f of every source whose
//     accumulators moved, in ascending ID order ("moved") — the sources
//     that voted in it, or every source when trust decay is on;
//   - the facts it decided, in evaluation order ("decided").
//
// Values are absolute, not deltas, and travel as the same exact float64
// round-trips and canonical name/name_b64 pairs as a checkpoint, so a
// base checkpoint plus its log replays to the bytes a full checkpoint of
// the same stream would hold. A record's size depends on the batch and on
// the source count, never on the decided-fact log.
//
// Framing: one record per line,
//
//	<crc32 hex of the JSON> SP <compact JSON> LF
//
// Compact JSON never contains a raw LF, so the terminator is unambiguous.

type logRecord struct {
	Batch   int        `json:"batch"`
	New     []logName  `json:"new,omitempty"`
	Moved   []logAccum `json:"moved"`
	Decided []logFact  `json:"decided"`
}

type logName struct {
	Name    string `json:"name,omitempty"`
	NameB64 string `json:"name_b64,omitempty"`
}

type logAccum struct {
	ID     int     `json:"id"`
	Credit float64 `json:"credit"`
	Count  int     `json:"count"`
	CountF float64 `json:"count_f,omitempty"`
}

type logFact struct {
	Name        string      `json:"name,omitempty"`
	NameB64     string      `json:"name_b64,omitempty"`
	Probability float64     `json:"probability"`
	Prediction  truth.Label `json:"prediction"`
}

// batchRecord encodes the stream's newest batch as a framed log record
// and returns it with the batch's index. The index is -1 when no record
// can describe the stream's state: no batch has run since the stream was
// built or restored, or the newest batch is the first, which only a full
// checkpoint records (it fixes the default trust a record does not
// carry).
func (st *Stream) batchRecord() ([]byte, int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	end := st.batchesLocked()
	if st.last.end != end || end < 2 {
		return nil, -1, nil
	}
	rec := logRecord{Batch: end - 1}
	for i := st.last.sources; i < st.symtab.Len(); i++ {
		plain, b64 := encodeName(st.symtab.Name(uint32(i)))
		rec.New = append(rec.New, logName{Name: plain, NameB64: b64})
	}
	move := func(i int) {
		credit, count, countF := st.accumulators(i)
		rec.Moved = append(rec.Moved, logAccum{ID: i, Credit: credit, Count: count, CountF: countF})
	}
	if st.state.fcount != nil {
		// Decay scales every source's evidence each batch.
		for i := range st.state.credit {
			move(i)
		}
	} else {
		for _, id := range st.last.voters {
			move(int(id))
		}
	}
	for _, sf := range st.decided[st.last.facts:] {
		plain, b64 := encodeName(sf.Name)
		rec.Decided = append(rec.Decided, logFact{
			Name: plain, NameB64: b64, Probability: sf.Probability, Prediction: sf.Prediction,
		})
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, -1, fmt.Errorf("core: encoding log record for batch %d: %w", rec.Batch, err)
	}
	line := make([]byte, 0, len(payload)+10)
	line = append(line, checksum(payload)...)
	line = append(line, ' ')
	line = append(line, payload...)
	return append(line, '\n'), rec.Batch, nil
}

// replayLog applies the records in data to cs, a parsed (not yet
// validated) base checkpoint; the caller validates the result. Leading
// records for batches the base already holds — left by a crash between a
// compaction's rename and its log reset — are skipped. A torn final
// record, unterminated or failing its checksum, was never acknowledged:
// it is ignored, and replayLog reports true. Any other damage is an
// error: a bad record with more bytes after it, an undecodable record, or
// batch numbers past the base with a gap or a repeat.
func (cs *checkpointState) replayLog(data []byte) (bool, error) {
	applied, next := 0, 0
	if n := len(cs.Decided); n > 0 {
		next = cs.Decided[n-1].Batch + 1
	}
	for off := 0; off < len(data); {
		at := off
		n := bytes.IndexByte(data[off:], '\n')
		if n < 0 {
			return true, nil
		}
		line := data[off : off+n]
		off += n + 1
		payload, ok := unframe(line)
		if !ok {
			if off == len(data) {
				return true, nil
			}
			return false, fmt.Errorf("log record at byte %d fails its checksum and is not the last", at)
		}
		dec := json.NewDecoder(bytes.NewReader(payload))
		dec.DisallowUnknownFields()
		var rec logRecord
		if err := dec.Decode(&rec); err != nil {
			return false, fmt.Errorf("log record at byte %d does not decode: %w", at, err)
		}
		var trailing json.RawMessage
		if err := dec.Decode(&trailing); err != io.EOF {
			return false, fmt.Errorf("log record at byte %d carries trailing data", at)
		}
		if applied == 0 && rec.Batch < next {
			continue
		}
		if rec.Batch != next {
			return false, fmt.Errorf("log record at byte %d is for batch %d, want %d", at, rec.Batch, next)
		}
		if err := cs.applyRecord(&rec); err != nil {
			return false, fmt.Errorf("log record at byte %d: %w", at, err)
		}
		next++
		applied++
	}
	return false, nil
}

// unframe checks a record line's checksum and returns its JSON payload.
func unframe(line []byte) ([]byte, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	payload := line[9:]
	return payload, string(line[:8]) == checksum(payload)
}

// applyRecord folds one record into cs. It checks only what indexing
// needs; validate() checks every invariant of the result.
func (cs *checkpointState) applyRecord(rec *logRecord) error {
	if rec.Batch < 1 {
		return fmt.Errorf("batch %d: the first batch is only ever in a full checkpoint", rec.Batch)
	}
	if len(rec.Decided) == 0 {
		return fmt.Errorf("batch %d decides no facts", rec.Batch)
	}
	for _, n := range rec.New {
		cs.Sources = append(cs.Sources, checkpointSource{Name: n.Name, NameB64: n.NameB64})
	}
	prev := -1
	for _, m := range rec.Moved {
		if m.ID <= prev || m.ID >= len(cs.Sources) {
			return fmt.Errorf("batch %d moves source %d out of order or range", rec.Batch, m.ID)
		}
		prev = m.ID
		src := &cs.Sources[m.ID]
		src.Credit, src.Count, src.CountF = m.Credit, m.Count, m.CountF
	}
	for _, f := range rec.Decided {
		cs.Decided = append(cs.Decided, checkpointFact{
			Name: f.Name, NameB64: f.NameB64, Batch: rec.Batch,
			Probability: f.Probability, Prediction: f.Prediction,
		})
	}
	return nil
}
