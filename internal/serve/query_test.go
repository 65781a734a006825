package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"testing"

	"corroborate/internal/core"
	"corroborate/internal/truth"
)

func TestParseQueryParams(t *testing.T) {
	good := []struct {
		raw  string
		want queryParams
	}{
		{"", queryParams{batch: -1, limit: -1}},
		{"fact=f1", queryParams{fact: "f1", batch: -1, limit: -1}},
		{"prefix=f&batch=2", queryParams{prefix: "f", batch: 2, limit: -1}},
		{"prediction=true", queryParams{batch: -1, limit: -1, prediction: truth.True}},
		{"prediction=false", queryParams{batch: -1, limit: -1, prediction: truth.False}},
		{"offset=3&limit=0", queryParams{batch: -1, offset: 3, limit: 0}},
		{"top=5", queryParams{batch: -1, limit: -1, top: 5}},
		{"top=5&prefix=f", queryParams{prefix: "f", batch: -1, limit: -1, top: 5}},
	}
	for _, tc := range good {
		q, err := url.ParseQuery(tc.raw)
		if err != nil {
			t.Fatalf("%q: %v", tc.raw, err)
		}
		p, err := parseQueryParams(q)
		if err != nil {
			t.Errorf("%q: unexpected error %v", tc.raw, err)
			continue
		}
		if p != tc.want {
			t.Errorf("%q: got %+v, want %+v", tc.raw, p, tc.want)
		}
	}

	bad := []string{
		"offset=-1",
		"offset=x",
		"limit=-2",
		"limit=x",
		"batch=nope",
		"batch=-1",
		"prediction=maybe",
		"top=0",
		"top=-3",
		"top=2&offset=1",
		"top=2&limit=5",
		"top=2&limit=0",
		"bogus=1",
		"fact=a&fact=b",
	}
	for _, raw := range bad {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatalf("%q: %v", raw, err)
		}
		if _, err := parseQueryParams(q); err == nil {
			t.Errorf("%q: parsed, want error", raw)
		}
	}
}

// syntheticSnapshot builds an n-fact snapshot directly, bypassing the
// stream: query evaluation only reads the decided-fact log.
func syntheticSnapshot(n int) *core.StreamSnapshot {
	facts := make([]core.StreamFact, n)
	for i := range facts {
		pred := truth.True
		// A deterministic mix of names, batches, probabilities, labels.
		if i%3 == 0 {
			pred = truth.False
		}
		facts[i] = core.StreamFact{
			Name:        fmt.Sprintf("f%06d", i),
			Batch:       i / 100,
			Probability: float64(i%97) / 97,
			Prediction:  pred,
		}
	}
	return &core.StreamSnapshot{Batches: (n + 99) / 100, Facts: facts}
}

// TestEvalQueryMatchesMaterializedReference checks every σ and shape
// against the obvious materialize-then-slice implementation.
func TestEvalQueryMatchesMaterializedReference(t *testing.T) {
	snap := syntheticSnapshot(1000)
	cases := []string{
		"",
		"fact=f000123",
		"prefix=f0001",
		"batch=4",
		"prediction=false",
		"prefix=f0002&prediction=true",
		"offset=17&limit=5",
		"prefix=f0003&offset=2&limit=4",
		"offset=5000&limit=5",
		"limit=0",
		"top=7",
		"top=7&prediction=false",
		"top=100000",
		// A top far beyond the log must not size the heap by top: 2³¹
		// entries is an allocation the process cannot survive.
		"top=2147483648",
	}
	for _, raw := range cases {
		q, _ := url.ParseQuery(raw)
		p, err := parseQueryParams(q)
		if err != nil {
			t.Fatalf("%q: %v", raw, err)
		}

		var matched []core.StreamFact
		for _, f := range snap.Facts {
			if p.matches(f) {
				matched = append(matched, f)
			}
		}
		var want []core.StreamFact
		if p.top > 0 {
			// Reference top-k: stable sort by probability descending (ties
			// keep arrival order), truncate.
			want = append(want, matched...)
			sort.SliceStable(want, func(i, j int) bool {
				return want[i].Probability > want[j].Probability
			})
			if len(want) > p.top {
				want = want[:p.top]
			}
		} else {
			want = matched
			if p.offset < len(want) {
				want = want[p.offset:]
			} else {
				want = nil
			}
			if p.limit >= 0 && p.limit < len(want) {
				want = want[:p.limit]
			}
		}

		total, got := evalQuery(snap, p)
		if total != len(matched) {
			t.Errorf("%q: total=%d, want %d", raw, total, len(matched))
		}
		if len(got) != len(want) {
			t.Errorf("%q: %d facts, want %d", raw, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%q: fact %d = %+v, want %+v", raw, i, got[i], want[i])
			}
		}
	}
}

// TestQueryHTTPFilterAndTopK drives the new parameters end to end through
// the handler, including the 400 surface.
func TestQueryHTTPFilterAndTopK(t *testing.T) {
	batches := scenarioBatches(t, 3, 6, 47)
	srv, ts := newTestServer(t, Config{Tenants: []WorldConfig{{Name: "q", Shards: 2}}})
	defer func() {
		if err := srv.Drain(); err != nil {
			t.Fatal(err)
		}
	}()
	for _, votes := range batches {
		resp, err := postIngest(ts, "q", ingestBody(t, votes))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: %d", resp.StatusCode)
		}
	}
	snap := srv.World("q").Snapshot()

	resp, err := http.Get(ts.URL + "/v1/tenants/q/query?prediction=true")
	if err != nil {
		t.Fatal(err)
	}
	var q QueryResponse
	decodeInto(t, resp, &q)
	wantTrue := 0
	for _, f := range snap.Facts {
		if f.Prediction == truth.True {
			wantTrue++
		}
	}
	if q.Total != wantTrue || len(q.Facts) != wantTrue {
		t.Fatalf("prediction=true total=%d len=%d, want %d", q.Total, len(q.Facts), wantTrue)
	}
	for _, f := range q.Facts {
		if f.Prediction != truth.True {
			t.Fatalf("prediction=true returned %+v", f)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/tenants/q/query?top=3")
	if err != nil {
		t.Fatal(err)
	}
	var topResp QueryResponse
	decodeInto(t, resp, &topResp)
	if topResp.Total != len(snap.Facts) {
		t.Fatalf("top=3 total=%d, want %d", topResp.Total, len(snap.Facts))
	}
	k := 3
	if k > len(snap.Facts) {
		k = len(snap.Facts)
	}
	if len(topResp.Facts) != k {
		t.Fatalf("top=3 returned %d facts, want %d", len(topResp.Facts), k)
	}
	for i := 1; i < len(topResp.Facts); i++ {
		if topResp.Facts[i].Probability > topResp.Facts[i-1].Probability {
			t.Fatalf("top=3 not sorted by probability: %v", topResp.Facts)
		}
	}

	for _, raw := range []string{"top=2&limit=5", "top=0", "prediction=maybe", "bogus=1"} {
		resp, err := http.Get(ts.URL + "/v1/tenants/q/query?" + raw)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400", raw, resp.StatusCode)
		}
	}
}

// TestEvalQueryAllocationCeiling is the laziness proof for the serving
// path: top-k and pagination over a 200k-fact snapshot must allocate on
// the order of the result size, never the log size. A materializing
// implementation (copy matched facts, sort, slice) allocates hundreds of
// thousands of times more and trips the ceiling immediately.
func TestEvalQueryAllocationCeiling(t *testing.T) {
	snap := syntheticSnapshot(200_000)

	topQ, _ := url.ParseQuery("top=10&prediction=true")
	p, err := parseQueryParams(topQ)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		total, facts := evalQuery(snap, p)
		if total == 0 || len(facts) != 10 {
			t.Fatalf("top-k saw total=%d len=%d", total, len(facts))
		}
	})
	if allocs > 64 {
		t.Errorf("top-10 over 200k facts: %.0f allocs/run, ceiling 64", allocs)
	}

	pageQ, _ := url.ParseQuery("offset=100000&limit=10")
	p, err = parseQueryParams(pageQ)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(10, func() {
		total, facts := evalQuery(snap, p)
		if total != 200_000 || len(facts) != 10 {
			t.Fatalf("page saw total=%d len=%d", total, len(facts))
		}
	})
	if allocs > 64 {
		t.Errorf("10-fact page of 200k facts: %.0f allocs/run, ceiling 64", allocs)
	}
}

// BenchmarkEvalQuery times the two /query shapes over a 200k-fact
// snapshot: top-k by probability, and a filtered 10-fact page deep into
// the log. allocs/op must stay O(result), not O(log).
func BenchmarkEvalQuery(b *testing.B) {
	snap := syntheticSnapshot(200_000)
	for _, raw := range []string{"top=10", "prediction=true&offset=50000&limit=10"} {
		q, _ := url.ParseQuery(raw)
		p, err := parseQueryParams(q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(raw, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if total, facts := evalQuery(snap, p); total == 0 || len(facts) != 10 {
					b.Fatalf("saw total=%d len=%d", total, len(facts))
				}
			}
		})
	}
}

// FuzzQueryParams throws arbitrary query strings at the parser: it must
// never panic, and an accepted parse must satisfy the invariants the
// evaluator relies on (no negative offsets, no top/pagination mix).
func FuzzQueryParams(f *testing.F) {
	for _, seed := range []string{
		"",
		"fact=f1&batch=2",
		"prefix=f&prediction=true&top=5",
		"offset=1&limit=2",
		"offset=-1",
		"limit=99999999999999999999",
		"top=2&offset=1",
		"fact=a&fact=b",
		"bogus=%00",
		"prediction=TRUE",
		"top=+3",
		"offset=0x10",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		p, err := parseQueryParams(q)
		if err != nil {
			return
		}
		if p.offset < 0 || p.limit < -1 || p.top < 0 || p.batch < -1 {
			t.Fatalf("accepted out-of-range params %+v from %q", p, raw)
		}
		if p.top > 0 && (p.offset != 0 || p.limit != -1) {
			t.Fatalf("accepted top mixed with pagination %+v from %q", p, raw)
		}
		// The accepted parse must evaluate without panicking, even against
		// an empty snapshot.
		total, facts := evalQuery(&core.StreamSnapshot{}, p)
		if total != 0 || len(facts) != 0 {
			t.Fatalf("empty snapshot yielded total=%d len=%d", total, len(facts))
		}
	})
}
