package truth

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	d := MotivatingExample()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, d); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	assertDatasetsEqual(t, d, got)
}

func TestJSONFileRoundTrip(t *testing.T) {
	d := MotivatingExample()
	path := filepath.Join(t.TempDir(), "d.json")
	if err := SaveJSON(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	assertDatasetsEqual(t, d, got)
}

func TestJSONGoldenRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.AddSources("a", "b")
	f1 := b.Fact("x")
	f2 := b.Fact("y")
	b.Vote(f1, 0, Affirm)
	b.Vote(f2, 1, Deny)
	b.Label(f1, True)
	b.Label(f2, False)
	b.Golden([]int{f2})
	d := b.Build()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasGolden() {
		t.Fatal("golden set lost")
	}
	assertDatasetsEqual(t, d, got)
}

func TestReadJSONInternsUnlistedSources(t *testing.T) {
	in := `{"sources": ["a"], "facts": [{"name": "x", "votes": {"a": "T", "mystery": "F"}}]}`
	d, err := ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSources() != 2 {
		t.Fatalf("sources = %d, want 2 (mystery interned)", d.NumSources())
	}
	if d.Vote(0, d.SourceIndex("mystery")) != Deny {
		t.Error("mystery's vote lost")
	}
}

// TestReadJSONRepeatedGoldenFact: a fact listed twice re-interns one
// index, as a repeated CSV row does, and joins the golden set once (a
// FuzzReadJSON find: the dataset failed Validate with a duplicated
// golden index).
func TestReadJSONRepeatedGoldenFact(t *testing.T) {
	in := `{"facts": [{"name": "r", "golden": true}, {"name": "r", "golden": true}]}`
	d, err := ReadJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumFacts() != 1 || len(d.Golden()) != 1 {
		t.Fatalf("%d facts, golden %v; want one fact, golden once", d.NumFacts(), d.Golden())
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := map[string]string{
		"not json":      "nope",
		"unknown field": `{"sources": [], "facts": [], "extra": 1}`,
		"unnamed fact":  `{"facts": [{"votes": {"a": "T"}}]}`,
		"bad vote":      `{"facts": [{"name": "x", "votes": {"a": "Q"}}]}`,
		"bad label":     `{"facts": [{"name": "x", "votes": {"a": "T"}, "label": "perhaps"}]}`,
		"trailing data": `{"facts": [{"name": "a", "votes": {"s": "T"}}]} trailing garbage {`,
		"two datasets":  `{"facts": [{"name": "a", "votes": {"s": "T"}}]}{"facts": []}`,
	}
	for name, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJSON should fail", name)
		}
	}
}

func TestWriteResultJSON(t *testing.T) {
	d := MotivatingExample()
	r := NewResult("demo", d)
	r.FactProb[0] = 0.9
	r.Finalize()
	r.Trust = make([]float64, d.NumSources())
	var buf bytes.Buffer
	if err := WriteResultJSON(&buf, d, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"method": "demo"`, `"name": "r1"`, `"prediction": "true"`, `"trust"`} {
		if !strings.Contains(out, want) {
			t.Errorf("result JSON missing %q", want)
		}
	}
	// Mis-shaped results are rejected.
	r.FactProb = r.FactProb[:2]
	if err := WriteResultJSON(&buf, d, r); err == nil {
		t.Error("mis-shaped result must be rejected")
	}
}
