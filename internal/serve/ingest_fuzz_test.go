package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"corroborate/internal/core"
	"corroborate/internal/truth"
)

// FuzzIngestBody posts arbitrary bytes as the ingest body of an in-memory
// tenant that has absorbed one batch. Every answer is 200 or 400. A 400
// leaves no trace: the batch count stays and no snapshot is published. A
// 200 applies exactly one batch, and only for a body that encoding/json
// reads as exactly one IngestRequest with no unknown field; such a body
// gets a 400 only when a stream refuses its votes.
func FuzzIngestBody(f *testing.F) {
	for _, seed := range []string{
		`{"votes":[{"fact":"f1","source":"s1","vote":"T"},{"fact":"f1","source":"s2","vote":"F"},{"fact":"f2","source":"s1","vote":"T"}]}`,
		"{\"votes\":[{\"fact\":\"x\",\"source\":\"s\",\"vote\":\"T\"}]}\n",
		`{"votes":[]}`,
		`{"votes":`,
		`{"votes":[],"extra":1}`,
		`{"votes":[{"fact":"f","source":"s","vote":"X"}]}`,
		`{"votes":[{"fact":"plain","source":"s","vote":"T"},{"fact":"plain","source":"s","vote":"T"}]}`,
		`{"votes":[{"fact":"x","source":"s","vote":"T"}]}{"votes":[{"fact":"y","source":"s","vote":"T"}]}`,
		`{"votes":[{"fact":"x","source":"s","vote":"T"}]} trailing garbage {`,
	} {
		f.Add([]byte(seed))
	}
	first := []core.BatchVote{{Fact: "first", Source: "s", Vote: truth.Affirm}}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv, _, err := New(Config{Tenants: []WorldConfig{{Name: "t"}}})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := srv.Drain(); err != nil {
				t.Fatal(err)
			}
		}()
		world := srv.World("t")
		if _, err := world.Ingest(context.Background(), first); err != nil {
			t.Fatal(err)
		}
		before := world.Snapshot()

		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants/t/ingest", bytes.NewReader(body)))

		// json.Unmarshal accepts exactly one JSON value; the decoder adds
		// the unknown-field refusal the handler applies.
		var req IngestRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		oneRequest := json.Unmarshal(body, new(any)) == nil && dec.Decode(&req) == nil
		batches := world.stream.Batches()
		switch rec.Code {
		case http.StatusOK:
			if !oneRequest {
				t.Fatalf("200 for a body that is not one ingest request: %q", body)
			}
			if batches != before.Batches+1 || world.Snapshot().Batches != batches {
				t.Fatalf("200 moved the batch count from %d to %d (snapshot %d)", before.Batches, batches, world.Snapshot().Batches)
			}
		case http.StatusBadRequest:
			if batches != before.Batches || world.Snapshot() != before {
				t.Fatalf("400 left a trace: %d batches, was %d; snapshot replaced: %v", batches, before.Batches, world.Snapshot() != before)
			}
			if oneRequest {
				votes := make([]core.BatchVote, len(req.Votes))
				for i, v := range req.Votes {
					votes[i] = core.BatchVote{Fact: v.Fact, Source: v.Source, Vote: v.Vote}
				}
				ref := core.NewShardedStream(1)
				if _, err := ref.AddBatch(first); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.AddBatch(votes); err == nil {
					t.Fatalf("400 (%s) for one ingest request whose batch a stream accepts: %q", bytes.TrimSpace(rec.Body.Bytes()), body)
				}
			}
		default:
			t.Fatalf("status %d (%s) for %q", rec.Code, bytes.TrimSpace(rec.Body.Bytes()), body)
		}
	})
}
