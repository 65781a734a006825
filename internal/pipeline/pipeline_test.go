package pipeline

import (
	"math/rand"
	"sort"
	"testing"
)

// randomStream builds a deterministic pseudo-random []int with a small
// value domain, so sorts and ranks see plenty of ties.
func randomStream(rng *rand.Rand, n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = rng.Intn(17)
	}
	return xs
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFilterComposition is the σ-fusion law: Filter(p) then Filter(q)
// yields exactly Filter(p ∧ q), for arbitrary streams and predicates.
func TestFilterComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	preds := []func(int) bool{
		func(v int) bool { return v%2 == 0 },
		func(v int) bool { return v > 7 },
		func(v int) bool { return v != 3 },
		func(int) bool { return true },
		func(int) bool { return false },
	}
	for trial := 0; trial < 50; trial++ {
		xs := randomStream(rng, rng.Intn(200))
		p := preds[rng.Intn(len(preds))]
		q := preds[rng.Intn(len(preds))]
		chained := Collect(Filter(Filter(FromSlice(xs), p), q))
		fused := Collect(Filter(FromSlice(xs), func(v int) bool { return p(v) && q(v) }))
		if !equal(chained, fused) {
			t.Fatalf("trial %d: Filter∘Filter %v != fused %v (input %v)", trial, chained, fused, xs)
		}
	}
}

// TestMapFusion is the π-fusion law: Map(f) then Map(g) yields Map(g∘f).
func TestMapFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(v int) int { return v*3 + 1 }
	g := func(v int) int { return v * v }
	for trial := 0; trial < 50; trial++ {
		xs := randomStream(rng, rng.Intn(200))
		chained := Collect(Map(Map(FromSlice(xs), f), g))
		fused := Collect(Map(FromSlice(xs), func(v int) int { return g(f(v)) }))
		if !equal(chained, fused) {
			t.Fatalf("trial %d: Map∘Map %v != fused %v", trial, chained, fused)
		}
	}
}

// TestTopKMatchesSortTruncate locks the heap implementation to its
// definition: stable sort by rank, truncate to k. The small value domain
// forces ties, so the arrival-order tie-break is genuinely exercised.
func TestTopKMatchesSortTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rank := func(a, b int) bool { return a > b }
	for trial := 0; trial < 100; trial++ {
		xs := randomStream(rng, rng.Intn(150))
		k := rng.Intn(20)
		// The reference carries (value, index) pairs so the assertion can
		// distinguish tied values by arrival.
		type tagged struct{ v, ord int }
		ref := make([]tagged, len(xs))
		for i, v := range xs {
			ref[i] = tagged{v, i}
		}
		sort.SliceStable(ref, func(i, j int) bool { return rank(ref[i].v, ref[j].v) })
		if len(ref) > k {
			ref = ref[:k]
		}

		top, total := TopK(FromSlice(xs), k, rank)
		if total != len(xs) {
			t.Fatalf("trial %d: total=%d, want %d", trial, total, len(xs))
		}
		if len(top) != len(ref) {
			t.Fatalf("trial %d: k=%d got %d elements, want %d", trial, k, len(top), len(ref))
		}
		for i := range top {
			if top[i] != ref[i].v {
				t.Fatalf("trial %d: k=%d top=%v, want %v (input %v)", trial, k, top, ref, xs)
			}
		}
	}
}

// TestWindowBoundaryInvariance is the window law: re-windowing a stream
// never changes its contents. Flattening KeyWindows reproduces the stream,
// every window is key-homogeneous, and consecutive windows have different
// keys.
func TestWindowBoundaryInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		xs := randomStream(rng, rng.Intn(120))
		// A random non-decreasing key.
		keys := make([]int, len(xs))
		k := 0
		for i := range keys {
			if rng.Intn(3) == 0 {
				k++
			}
			keys[i] = k
		}
		type row struct{ key, val int }
		rows := make([]row, len(xs))
		for i := range xs {
			rows[i] = row{keys[i], xs[i]}
		}
		var flat []int
		last := -1
		KeyWindows(FromSlice(rows), func(r row) int { return r.key })(func(win []row) bool {
			if len(win) == 0 {
				t.Fatal("empty window")
			}
			if win[0].key == last {
				t.Fatalf("consecutive windows share key %d", last)
			}
			last = win[0].key
			for _, r := range win {
				if r.key != win[0].key {
					t.Fatalf("mixed keys %d and %d in one window", win[0].key, r.key)
				}
				flat = append(flat, r.val)
			}
			return true
		})
		if !equal(flat, xs) {
			t.Fatalf("trial %d: KeyWindows flattened %v != %v", trial, flat, xs)
		}
	}
}

// TestEarlyTerminationStopsSource pins the laziness contract: a consumer
// that stops yielding stops the source, through any operator chain.
func TestEarlyTerminationStopsSource(t *testing.T) {
	pulls := 0
	counted := func(n int) Seq[int] {
		return func(yield func(int) bool) {
			for i := 0; i < n; i++ {
				pulls++
				if !yield(i) {
					return
				}
			}
		}
	}
	// take drains s through a consumer that stops after n elements.
	take := func(s Seq[int], n int) []int {
		var got []int
		s(func(v int) bool {
			got = append(got, v)
			return len(got) < n
		})
		return got
	}

	// Map must forward termination upstream, not swallow it.
	pulls = 0
	if got := take(Map(counted(1000), func(v int) int { return v * 2 }), 1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("first of Map = %v", got)
	}
	if pulls != 1 {
		t.Fatalf("stopping after one element of Map pulled %d elements, want 1", pulls)
	}

	pulls = 0
	got := take(counted(1000), 5)
	if len(got) != 5 || pulls != 5 {
		t.Fatalf("stopping after 5 pulled %d elements yielding %v", pulls, got)
	}

	// Filter must forward termination upstream, not swallow it.
	pulls = 0
	evens := Filter(counted(1000), func(v int) bool { return v%2 == 0 })
	got = take(evens, 3)
	if len(got) != 3 {
		t.Fatalf("stopping after 3 over Filter yielded %v", got)
	}
	if pulls != 5 { // 0,1,2,3,4 — stops right after the third even
		t.Fatalf("stopping after 3 over Filter pulled %d elements, want 5", pulls)
	}
}

// TestPageReconstruction: pages of any size, concatenated, rebuild the
// stream, and every page reports the same total.
func TestPageReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := randomStream(rng, 137)
	for _, limit := range []int{1, 2, 10, 50, 137, 200} {
		var flat []int
		for offset := 0; ; offset += limit {
			total, page := Page(FromSlice(xs), offset, limit)
			if total != len(xs) {
				t.Fatalf("limit=%d offset=%d: total=%d, want %d", limit, offset, total, len(xs))
			}
			if len(page) == 0 {
				break
			}
			flat = append(flat, page...)
		}
		if !equal(flat, xs) {
			t.Fatalf("limit=%d: pages rebuild %v, want %v", limit, flat, xs)
		}
	}
	if total, page := Page(FromSlice(xs), 0, -1); total != len(xs) || !equal(page, xs) {
		t.Fatalf("unlimited page = %d elements, total %d", len(page), total)
	}
	if total, page := Page(FromSlice(xs), 500, 10); total != len(xs) || page != nil {
		t.Fatalf("past-the-end page = %v, total %d", page, total)
	}
}

// TestStrideDropLaws: Stride(1) is the identity; Stride keeps exactly the
// multiples.
func TestStrideDropLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	xs := randomStream(rng, 100)
	if got := Collect(Stride(FromSlice(xs), 1)); !equal(got, xs) {
		t.Fatalf("Stride(1) changed the stream")
	}
	var want []int
	for i := 0; i < len(xs); i += 7 {
		want = append(want, xs[i])
	}
	if got := Collect(Stride(FromSlice(xs), 7)); !equal(got, want) {
		t.Fatalf("Stride(7) = %v, want %v", got, want)
	}
}

// TestAggregateOrder pins the determinism rule Confuse/TrustMSE rely on:
// Aggregate folds strictly left-to-right in source order.
func TestAggregateOrder(t *testing.T) {
	xs := []int{3, 1, 4, 1, 5}
	got := Aggregate(FromSlice(xs), []int(nil), func(a []int, v int) []int { return append(a, v) })
	if !equal(got, xs) {
		t.Fatalf("Aggregate visited %v, want %v", got, xs)
	}
}
