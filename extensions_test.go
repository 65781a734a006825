package corroborate_test

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"corroborate"
)

func TestStreamPublicAPI(t *testing.T) {
	st := corroborate.NewShardedStream(1)
	out, err := st.AddBatch([]corroborate.BatchVote{
		{Fact: "a", Source: "s1", Vote: corroborate.Affirm},
		{Fact: "b", Source: "s1", Vote: corroborate.Deny},
		{Fact: "b", Source: "s2", Vote: corroborate.Affirm},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("decided %d facts", len(out))
	}
	if st.Batches() != 1 {
		t.Errorf("Batches = %d", st.Batches())
	}
}

func TestShardedStreamPublicAPI(t *testing.T) {
	batch := []corroborate.BatchVote{
		{Fact: "a", Source: "s1", Vote: corroborate.Affirm},
		{Fact: "a", Source: "s2", Vote: corroborate.Affirm},
		{Fact: "b", Source: "s1", Vote: corroborate.Deny},
		{Fact: "b", Source: "s2", Vote: corroborate.Affirm},
	}
	st := corroborate.NewShardedStream(1)
	ss := corroborate.NewShardedStream(4)
	if ss.Shards() != 4 {
		t.Fatalf("Shards = %d", ss.Shards())
	}
	want, err := st.AddBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ss.AddBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("sharded decided %d facts, sequential %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sharded[%d] = %+v, sequential %+v", i, got[i], want[i])
		}
	}
}

func TestCheckpointPublicAPI(t *testing.T) {
	st := corroborate.NewShardedStream(1)
	if _, err := st.AddBatch([]corroborate.BatchVote{
		{Fact: "a", Source: "s1", Vote: corroborate.Affirm},
		{Fact: "b", Source: "s2", Vote: corroborate.Deny},
		{Fact: "b", Source: "s3", Vote: corroborate.Affirm},
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snapshot := buf.Bytes()

	restored, err := corroborate.RestoreShardedStream(bytes.NewReader(snapshot), 1)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Batches() != 1 || len(restored.Decided()) != 2 {
		t.Fatalf("restored %d batches, %d facts", restored.Batches(), len(restored.Decided()))
	}
	sharded, err := corroborate.RestoreShardedStream(bytes.NewReader(snapshot), 3)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Batches() != 1 {
		t.Fatalf("sharded restore lost the batch log")
	}
	if _, err := corroborate.RestoreShardedStream(strings.NewReader("not a checkpoint"), 1); err == nil {
		t.Fatal("garbage restored without error")
	}
}

func TestDependVotingPublicAPI(t *testing.T) {
	d := corroborate.MotivatingExample()
	m := corroborate.DependVoting()
	r, err := m.RunWith(context.Background(), d, corroborate.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(d); err != nil {
		t.Fatal(err)
	}
	matrix, err := corroborate.SourceDependence(d, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(matrix) != d.NumSources() {
		t.Fatalf("matrix size %d", len(matrix))
	}
}

func TestJSONPublicAPI(t *testing.T) {
	d := corroborate.MotivatingExample()
	path := filepath.Join(t.TempDir(), "d.json")
	if err := corroborate.SaveJSON(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := corroborate.LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVotes() != d.NumVotes() {
		t.Error("JSON round trip changed the dataset")
	}
	r, _ := corroborate.Voting().RunWith(context.Background(), d, corroborate.RunOptions{})
	var buf bytes.Buffer
	if err := corroborate.WriteResultJSON(&buf, d, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"method": "Voting"`) {
		t.Error("result JSON missing method")
	}
}

func TestBootstrapAndSignificancePublicAPI(t *testing.T) {
	d := corroborate.MotivatingExample()
	a, _ := corroborate.IncEstHeu().RunWith(context.Background(), d, corroborate.RunOptions{})
	b, _ := corroborate.TwoEstimate().RunWith(context.Background(), d, corroborate.RunOptions{})
	iv, err := corroborate.BootstrapAccuracy(d, a, 200, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := corroborate.Evaluate(d, a)
	if !iv.Contains(rep.Accuracy) {
		t.Errorf("interval %v should contain %v", iv, rep.Accuracy)
	}
	p := corroborate.SignificanceTest(d, a, b, 500, 1)
	if p <= 0 || p > 1 {
		t.Errorf("p-value = %v out of (0, 1]", p)
	}
}
