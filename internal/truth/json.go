package truth

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// JSON dataset format
//
// A self-describing alternative to the CSV format, convenient for sparse
// datasets with many sources:
//
//	{
//	  "sources": ["yelp", "menupages"],
//	  "facts": [
//	    {"name": "dannys", "votes": {"yelp": "T", "menupages": "F"},
//	     "label": "false", "golden": true}
//	  ]
//	}
//
// The label and golden fields are optional; votes reference sources by
// name and may mention sources absent from the top-level list (they are
// interned on the fly).

type jsonDataset struct {
	Sources []string   `json:"sources"`
	Facts   []jsonFact `json:"facts"`
}

type jsonFact struct {
	Name   string            `json:"name"`
	Votes  map[string]string `json:"votes"`
	Label  string            `json:"label,omitempty"`
	Golden bool              `json:"golden,omitempty"`
}

// WriteJSON serializes the dataset in the documented JSON format.
func WriteJSON(w io.Writer, d *Dataset) error {
	out := jsonDataset{Sources: d.SourceNames()}
	golden := make(map[int]bool)
	if d.HasGolden() {
		for _, f := range d.Golden() {
			golden[f] = true
		}
	}
	for f := 0; f < d.NumFacts(); f++ {
		jf := jsonFact{
			Name:  d.FactName(f),
			Votes: make(map[string]string, len(d.VotesOnFact(f))),
		}
		for _, sv := range d.VotesOnFact(f) {
			jf.Votes[d.SourceName(sv.Source)] = sv.Vote.String()
		}
		if l := d.Label(f); l != Unknown {
			jf.Label = l.String()
		}
		if d.HasGolden() {
			jf.Golden = golden[f]
		} else {
			jf.Golden = d.Label(f) != Unknown
		}
		out.Facts = append(out.Facts, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("truth: encoding JSON dataset: %w", err)
	}
	return nil
}

// ReadJSON parses a dataset in the documented JSON format.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var in jsonDataset
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("truth: decoding JSON dataset: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("truth: decoding JSON dataset: data after the dataset object")
	}
	b := NewBuilder()
	b.AddSources(in.Sources...)
	var golden []int
	goldenSeen := make(map[int]bool)
	for i, jf := range in.Facts {
		if jf.Name == "" {
			return nil, fmt.Errorf("truth: JSON fact %d has no name", i)
		}
		f := b.Fact(jf.Name)
		// Visit votes in sorted source order: a vote naming a source absent
		// from the "sources" list interns it on first sight, and ID
		// assignment must not depend on Go's map iteration order.
		srcs := make([]string, 0, len(jf.Votes))
		for src := range jf.Votes {
			srcs = append(srcs, src)
		}
		sort.Strings(srcs)
		for _, src := range srcs {
			v, err := ParseVote(jf.Votes[src])
			if err != nil {
				return nil, fmt.Errorf("truth: JSON fact %q: %w", jf.Name, err)
			}
			if v != Absent {
				b.Vote(f, b.Source(src), v)
			}
		}
		if jf.Label != "" {
			l, err := ParseLabel(jf.Label)
			if err != nil {
				return nil, fmt.Errorf("truth: JSON fact %q: %w", jf.Name, err)
			}
			b.Label(f, l)
		}
		// A repeated fact re-interns the same index, as in ReadCSV; its
		// golden membership must not duplicate (Validate rejects that).
		if jf.Golden && !goldenSeen[f] {
			goldenSeen[f] = true
			golden = append(golden, f)
		}
	}
	if len(golden) > 0 {
		b.Golden(golden)
	}
	return b.Build(), nil
}

// SaveJSON writes the dataset to a file, creating or truncating it.
func SaveJSON(path string, d *Dataset) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("truth: creating %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return WriteJSON(f, d)
}

// LoadJSON reads a dataset from a file.
func LoadJSON(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("truth: opening %s: %w", path, err)
	}
	defer f.Close()
	d, err := ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("truth: parsing %s: %w", path, err)
	}
	return d, nil
}

// resultJSON is the serialized form of a corroboration result.
type resultJSON struct {
	Method string             `json:"method"`
	Facts  []resultFactJSON   `json:"facts"`
	Trust  map[string]float64 `json:"trust,omitempty"`
}

type resultFactJSON struct {
	Name        string  `json:"name"`
	Probability float64 `json:"probability"`
	Prediction  string  `json:"prediction"`
}

// WriteResultJSON serializes a result against its dataset (fact and source
// names come from the dataset).
func WriteResultJSON(w io.Writer, d *Dataset, r *Result) error {
	if err := r.Check(d); err != nil {
		return err
	}
	out := resultJSON{Method: r.Method}
	for f := 0; f < d.NumFacts(); f++ {
		out.Facts = append(out.Facts, resultFactJSON{
			Name:        d.FactName(f),
			Probability: r.FactProb[f],
			Prediction:  r.Predictions[f].String(),
		})
	}
	if r.Trust != nil {
		out.Trust = make(map[string]float64, d.NumSources())
		for s := 0; s < d.NumSources(); s++ {
			out.Trust[d.SourceName(s)] = r.Trust[s]
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("truth: encoding JSON result: %w", err)
	}
	return nil
}
