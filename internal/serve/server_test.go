package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corroborate/internal/core"
)

// newTestServer builds a Server over the given tenant configs and wraps it
// in an httptest server. The caller owns Drain.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func ingestBody(t *testing.T, votes []core.BatchVote) []byte {
	t.Helper()
	req := IngestRequest{Votes: make([]VoteJSON, len(votes))}
	for i, v := range votes {
		req.Votes[i] = VoteJSON{Fact: v.Fact, Source: v.Source, Vote: v.Vote}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postIngest(ts *httptest.Server, tenant string, body []byte) (*http.Response, error) {
	return http.Post(ts.URL+"/v1/tenants/"+tenant+"/ingest", "application/json", bytes.NewReader(body))
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer func() { _ = resp.Body.Close() }()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s response: %v", resp.Request.URL, err)
	}
}

func TestServerIngestQueryTrustRoundTrip(t *testing.T) {
	batches := scenarioBatches(t, 3, 5, 41)
	srv, ts := newTestServer(t, Config{Tenants: []WorldConfig{{Name: "alpha", Shards: 2}}})
	defer func() {
		if err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
	}()

	for i, votes := range batches {
		resp, err := postIngest(ts, "alpha", ingestBody(t, votes))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
		var ack IngestResponse
		decodeInto(t, resp, &ack)
		if ack.Tenant != "alpha" || ack.Batch != i {
			t.Fatalf("batch %d acked as %+v", i, ack)
		}
	}

	// The query view must match the world's snapshot exactly.
	resp, err := http.Get(ts.URL + "/v1/tenants/alpha/query")
	if err != nil {
		t.Fatal(err)
	}
	var q QueryResponse
	decodeInto(t, resp, &q)
	snap := srv.World("alpha").Snapshot()
	if q.Batches != snap.Batches || q.Total != len(snap.Facts) || len(q.Facts) != len(snap.Facts) {
		t.Fatalf("query view %d/%d/%d vs snapshot %d/%d", q.Batches, q.Total, len(q.Facts), snap.Batches, len(snap.Facts))
	}
	for i, f := range q.Facts {
		want := snap.Facts[i]
		if f.Fact != want.Name || f.Batch != want.Batch || f.Prediction != want.Prediction {
			t.Fatalf("fact %d: %+v vs %+v", i, f, want)
		}
	}

	// Pagination: offset/limit carve the same ordered log.
	resp, err = http.Get(ts.URL + "/v1/tenants/alpha/query?offset=1&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	var page QueryResponse
	decodeInto(t, resp, &page)
	if page.Total != len(snap.Facts) || len(page.Facts) > 2 {
		t.Fatalf("paged view total=%d len=%d", page.Total, len(page.Facts))
	}
	if len(snap.Facts) > 1 && page.Facts[0].Fact != snap.Facts[1].Name {
		t.Fatalf("offset=1 starts at %q, want %q", page.Facts[0].Fact, snap.Facts[1].Name)
	}

	// Trust: sorted by source name, values matching the snapshot.
	resp, err = http.Get(ts.URL + "/v1/tenants/alpha/trust")
	if err != nil {
		t.Fatal(err)
	}
	var tr TrustResponse
	decodeInto(t, resp, &tr)
	if len(tr.Sources) != len(snap.Trust) {
		t.Fatalf("%d sources, want %d", len(tr.Sources), len(snap.Trust))
	}
	for i, s := range tr.Sources {
		if i > 0 && tr.Sources[i-1].Source >= s.Source {
			t.Fatalf("trust not sorted at %d: %q >= %q", i, tr.Sources[i-1].Source, s.Source)
		}
		//lint:ignore floatexact the wire value must round-trip the snapshot exactly
		if s.Trust != snap.Trust[s.Source] {
			t.Fatalf("trust[%s] = %v, want %v", s.Source, s.Trust, snap.Trust[s.Source])
		}
	}

	// Tenant listing.
	resp, err = http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var statuses []TenantStatus
	decodeInto(t, resp, &statuses)
	if len(statuses) != 1 || statuses[0].Name != "alpha" || statuses[0].Batches != len(batches) || statuses[0].ReadOnly {
		t.Fatalf("tenant listing %+v", statuses)
	}
}

func TestServerQueueFullReturns429WithRetryAfter(t *testing.T) {
	const depth = 2
	batches := scenarioBatches(t, depth+2, 4, 53)
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	srv, ts := newTestServer(t, Config{Tenants: []WorldConfig{{
		Name: "t", QueueDepth: depth,
		Gate: func() { entered <- struct{}{}; <-release },
	}}})

	// One batch held at the gate, then exactly `depth` filling the queue.
	type result struct {
		status int
		batch  int
	}
	results := make(chan result, depth+1)
	submit := func(i int) {
		go func() {
			resp, err := postIngest(ts, "t", ingestBody(t, batches[i]))
			if err != nil {
				t.Error(err)
				results <- result{status: -1}
				return
			}
			var ack IngestResponse
			decodeInto(t, resp, &ack)
			results <- result{status: resp.StatusCode, batch: ack.Batch}
		}()
	}
	submit(0)
	<-entered
	world := srv.World("t")
	for i := 1; i <= depth; i++ {
		submit(i)
		depthWant := i
		waitFor(t, func() bool { return world.QueueDepth() == depthWant })
	}

	// The queue is full: the next request must bounce with 429 and a
	// Retry-After hint, and must NOT be acknowledged or applied.
	resp, err := postIngest(ts, "t", ingestBody(t, batches[depth+1]))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var e errorResponse
	decodeInto(t, resp, &e)
	if !strings.Contains(e.Error, "queue full") {
		t.Fatalf("429 body %q", e.Error)
	}

	// Zero dropped-but-acknowledged: release the consumer; every request
	// that was admitted gets a 200 with its batch index, and the stream
	// ends with exactly those batches.
	close(release)
	acked := 0
	for i := 0; i < depth+1; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("admitted request answered %d", r.status)
		}
		acked++
	}
	if snap := world.Snapshot(); snap.Batches != acked {
		t.Fatalf("stream holds %d batches, %d were acknowledged", snap.Batches, acked)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestServerDrainFlipsReadyzAndShedsIngest(t *testing.T) {
	batches := scenarioBatches(t, 2, 4, 61)
	srv, ts := newTestServer(t, Config{Tenants: []WorldConfig{{Name: "t"}}})
	if resp, err := postIngest(ts, "t", ingestBody(t, batches[0])); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain ingest: %v / %v", err, resp.Status)
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s pre-drain: %d", path, resp.StatusCode)
		}
	}

	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	// Liveness stays up, readiness flips, ingest sheds with Retry-After.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	resp, err = postIngest(ts, "t", ingestBody(t, batches[1]))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("drained ingest: %d (Retry-After %q)", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Queries keep serving the drained state.
	resp, err = http.Get(ts.URL + "/v1/tenants/t/query")
	if err != nil {
		t.Fatal(err)
	}
	var q QueryResponse
	decodeInto(t, resp, &q)
	if q.Batches != 1 {
		t.Fatalf("post-drain query sees %d batches, want 1", q.Batches)
	}
}

func TestServerRejectsMalformedRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{Tenants: []WorldConfig{{Name: "t"}}})
	defer func() {
		if err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
	}()

	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"unknown tenant", func() (*http.Response, error) {
			return postIngest(ts, "ghost", []byte(`{"votes":[]}`))
		}, http.StatusNotFound},
		{"unknown tenant query", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/tenants/ghost/query")
		}, http.StatusNotFound},
		{"bad json", func() (*http.Response, error) {
			return postIngest(ts, "t", []byte(`{"votes":`))
		}, http.StatusBadRequest},
		{"unknown field", func() (*http.Response, error) {
			return postIngest(ts, "t", []byte(`{"votes":[],"extra":1}`))
		}, http.StatusBadRequest},
		{"invalid vote", func() (*http.Response, error) {
			return postIngest(ts, "t", []byte(`{"votes":[{"fact":"f","source":"s","vote":"X"}]}`))
		}, http.StatusBadRequest},
		{"empty batch", func() (*http.Response, error) {
			return postIngest(ts, "t", []byte(`{"votes":[]}`))
		}, http.StatusBadRequest},
		{"bad offset", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/tenants/t/query?offset=-1")
		}, http.StatusBadRequest},
		{"bad limit", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/tenants/t/query?limit=x")
		}, http.StatusBadRequest},
		{"bad batch filter", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/tenants/t/query?batch=nope")
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	batches := scenarioBatches(t, 2, 4, 71)
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{
		Tenants: []WorldConfig{
			{Name: "a", CheckpointPath: filepath.Join(dir, "a.json")},
			{Name: "b"},
		},
		Clock: func() time.Time { return time.Unix(1000, 0) },
	})
	defer func() {
		if err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
	}()
	for _, votes := range batches {
		if resp, err := postIngest(ts, "a", ingestBody(t, votes)); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: %v / %v", err, resp.Status)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	// Tenant "a" wrote its first batch as a full checkpoint and logged
	// the second.
	logged, err := os.Stat(filepath.Join(dir, "a.json.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"corrod_up 1",
		"corrod_draining 0",
		"corrod_tenants 2",
		fmt.Sprintf("corrod_admitted_total{tenant=%q} %d", "a", len(batches)),
		fmt.Sprintf("corrod_ingested_batches_total{tenant=%q} %d", "a", len(batches)),
		fmt.Sprintf("corrod_ingested_batches_total{tenant=%q} 0", "b"),
		fmt.Sprintf("corrod_queue_depth{tenant=%q} 0", "a"),
		fmt.Sprintf("corrod_read_only{tenant=%q} 0", "a"),
		fmt.Sprintf("corrod_checkpoint_age_seconds{tenant=%q} -1.000", "b"),
		fmt.Sprintf("corrod_checkpoint_log_bytes{tenant=%q} %d\n", "a", logged.Size()),
		fmt.Sprintf("corrod_checkpoint_compactions_total{tenant=%q} 1\n", "a"),
		fmt.Sprintf("corrod_checkpoint_log_bytes{tenant=%q} 0\n", "b"),
		fmt.Sprintf("corrod_checkpoint_compactions_total{tenant=%q} 0\n", "b"),
	} {
		if !strings.Contains(page, line) {
			t.Fatalf("metrics page missing %q:\n%s", line, page)
		}
	}
	// Tenant "a" checkpoints, so its age must be a real (non-negative)
	// reading under the fixed clock.
	if strings.Contains(page, fmt.Sprintf("corrod_checkpoint_age_seconds{tenant=%q} -1.000", "a")) {
		t.Fatalf("tenant a reports no checkpoint despite durable acks:\n%s", page)
	}
	// Tenants render in sorted order, so the page is deterministic.
	ai := strings.Index(page, `{tenant="a"}`)
	bi := strings.Index(page, `{tenant="b"}`)
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("tenant sections out of order (a@%d, b@%d)", ai, bi)
	}
	// With the clock fixed and no traffic in between, a second scrape
	// renders the same page byte for byte.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	again, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != page {
		t.Fatalf("metrics page changed between scrapes:\n%s\n---\n%s", page, again)
	}
}

// TestServerConcurrentIngestQuerySoak is the -race soak: writers hammer
// ingest through the admission queue while readers hit query, trust, and
// metrics. The assertion at the end is the honest-acknowledgment ledger:
// the stream holds exactly as many batches as clients got 200s for.
func TestServerConcurrentIngestQuerySoak(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")
	srv, ts := newTestServer(t, Config{Tenants: []WorldConfig{{
		Name: "t", Shards: 2, QueueDepth: 4, CheckpointPath: path,
	}}})

	const writers, perWriter = 4, 25
	batches := scenarioBatches(t, writers*perWriter, 3, 83)
	var acked, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				body := ingestBody(t, batches[w*perWriter+i])
				for {
					resp, err := postIngest(ts, "t", body)
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						acked.Add(1)
						break
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("writer %d: status %d", w, resp.StatusCode)
						return
					}
					rejected.Add(1) // backpressure: retry after a beat
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}

	readCtx, stopReaders := context.WithCancel(context.Background())
	var readers sync.WaitGroup
	for _, path := range []string{"/v1/tenants/t/query", "/v1/tenants/t/trust", "/metrics", "/v1/tenants"} {
		readers.Add(1)
		go func(url string) {
			defer readers.Done()
			for readCtx.Err() == nil {
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(ts.URL + path)
	}

	wg.Wait()
	stopReaders()
	readers.Wait()
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	if got := acked.Load(); got != writers*perWriter {
		t.Fatalf("%d batches acked, want %d", got, writers*perWriter)
	}
	if snap := srv.World("t").Snapshot(); snap.Batches != writers*perWriter {
		t.Fatalf("stream holds %d batches, %d were acknowledged", snap.Batches, writers*perWriter)
	}
	t.Logf("soak: %d acked, %d 429-retries", acked.Load(), rejected.Load())

	// The drained checkpoint restarts into exactly the acknowledged state.
	w2, report, err := OpenWorld(WorldConfig{Name: "t", CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Resumed {
		t.Fatal("restart did not resume")
	}
	if snap := w2.Snapshot(); snap.Batches != writers*perWriter {
		t.Fatalf("restart resumed %d batches, want %d", snap.Batches, writers*perWriter)
	}
	if err := w2.Drain(); err != nil {
		t.Fatal(err)
	}
}
