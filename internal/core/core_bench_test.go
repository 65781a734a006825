package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	driver "corroborate/internal/engine"
	"corroborate/internal/synth"
	"corroborate/internal/truth"
)

// benchWorld builds a mid-sized affirmative-regime dataset with a handful
// of conflicted groups, shaped like the paper's restaurant scenario.
func benchWorld(facts int) *truth.Dataset {
	b := truth.NewBuilder()
	const sources = 6
	for s := 0; s < sources; s++ {
		b.Source(fmt.Sprintf("s%d", s))
	}
	for f := 0; f < facts; f++ {
		fi := b.Fact(fmt.Sprintf("f%06d", f))
		switch f % 20 {
		case 0: // conflicted
			b.Vote(fi, 2, truth.Deny)
			b.Vote(fi, 0, truth.Affirm)
		case 1, 2: // laggard-only
			b.Vote(fi, 0, truth.Affirm)
			b.Vote(fi, 4, truth.Affirm)
		default: // well backed
			b.Vote(fi, 1+(f%3), truth.Affirm)
			b.Vote(fi, 5, truth.Affirm)
			if f%2 == 0 {
				b.Vote(fi, 0, truth.Affirm)
			}
		}
	}
	return b.Build()
}

// bigBenchWorld builds a crawl-scale dataset: many sources, tens of
// thousands of facts, and hundreds of distinct vote patterns so both sides
// of the ∆H ranking carry a deep candidate list — the regime the
// incremental engine and its lazy-greedy ranking exist for. Votes are drawn
// per pattern (as in internal/synth), so fact groups are large and
// correlated; ~17% of the patterns carry an F vote. The sources parameter
// controls co-listing density: with few sources every group neighbors every
// other (each absorb invalidates everything, the lazy queue degenerates to
// the full scan), while at crawl-like source counts neighborhoods are
// sparse and the pair cache carries most rounds.
func bigBenchWorld(sources, facts, patterns int) *truth.Dataset {
	state := uint64(12345)
	next := func(n uint64) uint64 {
		state = state*2862933555777941757 + 3037000493
		return (state >> 33) % n
	}
	type pvote struct {
		source int
		vote   truth.Vote
	}
	pool := make([][]pvote, patterns)
	for p := range pool {
		voters := 2 + int(next(5))
		seen := make(map[int]bool, voters)
		var sig []pvote
		for len(sig) < voters {
			s := int(next(uint64(sources)))
			if seen[s] {
				continue
			}
			seen[s] = true
			sig = append(sig, pvote{source: s, vote: truth.Affirm})
		}
		if p%6 == 0 { // ~17% of patterns are conflicted
			sig[0].vote = truth.Deny
		}
		pool[p] = sig
	}
	b := truth.NewBuilder()
	for s := 0; s < sources; s++ {
		b.Source(fmt.Sprintf("s%03d", s))
	}
	for f := 0; f < facts; f++ {
		fi := b.Fact(fmt.Sprintf("f%06d", f))
		for _, pv := range pool[int(next(uint64(patterns)))] {
			b.Vote(fi, pv.source, pv.vote)
		}
	}
	return b.Build()
}

// BenchmarkDeltaH isolates one ∆H argmax over the negative side of the
// first round of the crawl-scale world: the reference scan re-derives every
// group's probability per candidate; the engine ranks through the lazy
// priority queue — a cold first pass fills the pair cache, every later pass
// re-ranks from cached terms and stale bounds.
func BenchmarkDeltaH(b *testing.B) {
	d := bigBenchWorld(120, 50000, 800)
	groups := buildGroups(d)
	state := newTrustState(d.NumSources(), 0.9)
	trust := state.vector()
	var neg []*group
	for _, g := range groups {
		if g.prob(trust) <= truth.Threshold {
			neg = append(neg, g)
		}
	}
	if len(neg) < 2 {
		b.Fatalf("only %d negative candidates", len(neg))
	}
	b.Logf("%d groups, %d negative candidates", len(groups), len(neg))

	b.Run("reference", func(b *testing.B) {
		scratch := make([]float64, d.NumSources())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if argmaxDeltaH(neg, groups, state, trust, scratch, 1) == nil {
				b.Fatal("no selection")
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		e := NewHeu()
		eng := newEngine(e, d, state, groups, truth.NewResult(e.Name(), d))
		eng.syncTrust()
		eng.syncBaseline()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if eng.rankLazy(neg, nil, state, eng.trust, eng.baseH, 1, false) == nil {
				b.Fatal("no selection")
			}
		}
	})
}

func BenchmarkBuildGroups(b *testing.B) {
	d := benchWorld(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = buildGroups(d)
	}
}

func BenchmarkIncEstimate(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		d := benchWorld(n)
		for _, e := range []*IncEstimate{NewHeu(), NewPS(), NewScale()} {
			e := e
			b.Run(fmt.Sprintf("%s/%d", e.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := e.RunWith(context.Background(), d, driver.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIncEstimateLarge runs full corroborations of large worlds.
//
// The headline IncEstHeu/50000 and IncEstScale/50000 runs use a
// crawl-shaped world (2000 sources, 1000 patterns — each source backs ~2
// patterns, so a fact group neighbors a handful of others) as of BENCH_2:
// the BENCH_1 world packed 800 patterns onto 120 sources, a co-listing
// density at which every fact group neighbors most others and NO
// incremental scheme — the lazy queue included — can skip work without
// breaking byte-identity with the reference. That degenerate regime is
// preserved under the Dense name; BENCH_2's notes record the reshape. The
// 200k-fact runs cover the ROADMAP's next scale tier at the same
// co-listing density and are skipped under -short (CI's bench-smoke runs
// with -benchtime=1x; full runs are plain go test -bench).
func BenchmarkIncEstimateLarge(b *testing.B) {
	crawl := bigBenchWorld(2000, 50000, 1000)
	for _, e := range []*IncEstimate{NewHeu(), NewScale()} {
		e := e
		b.Run(fmt.Sprintf("%s/50000", e.Name()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunWith(context.Background(), crawl, driver.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	dense := bigBenchWorld(120, 50000, 800)
	b.Run("IncEstHeuDense/50000", func(b *testing.B) {
		e := NewHeu()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.RunWith(context.Background(), dense, driver.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if testing.Short() {
		return
	}
	big := bigBenchWorld(4000, 200000, 2000)
	for _, e := range []*IncEstimate{NewHeu(), NewScale()} {
		e := e
		b.Run(fmt.Sprintf("%s/200000", e.Name()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunWith(context.Background(), big, driver.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStream(b *testing.B) {
	// One 500-vote batch per iteration on a fresh stream.
	votes := make([]BatchVote, 0, 500)
	for i := 0; i < 250; i++ {
		votes = append(votes,
			BatchVote{Fact: fmt.Sprintf("f%d", i), Source: "a", Vote: truth.Affirm},
			BatchVote{Fact: fmt.Sprintf("f%d", i), Source: fmt.Sprintf("s%d", i%5), Vote: truth.Affirm},
		)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewShardedStream(1)
		if _, err := st.AddBatch(votes); err != nil {
			b.Fatal(err)
		}
	}
}

// agedBatches is how many scenario batches age agedStream, and
// agedScenario generates them and the batches after them: 40 facts per
// batch from 10 honest slots churning at 0.2.
const agedBatches = 500

func agedScenario(batches int) ([][]BatchVote, error) {
	world, err := synth.GenerateScenario(synth.ScenarioConfig{
		Batches: batches, FactsPerBatch: 40, HonestSources: 10, ChurnRate: 0.2, Seed: 1,
	})
	if err != nil {
		return nil, err
	}
	out := make([][]BatchVote, len(world.Batches))
	for b, batch := range world.Batches {
		out[b] = make([]BatchVote, len(batch.Votes))
		for i, v := range batch.Votes {
			out[b][i] = BatchVote{Fact: v.Fact, Source: v.Source, Vote: v.Vote}
		}
	}
	return out, nil
}

// agedStream is a stream aged like a long-lived tenant: agedBatches
// scenario batches — ~2×10⁴ decided facts and ~10³ sources, a ~1.8 MB
// checkpoint. It is built once per test binary and must not be fed
// further.
var agedStream = sync.OnceValues(func() (*Stream, error) {
	batches, err := agedScenario(agedBatches)
	if err != nil {
		return nil, err
	}
	st := NewShardedStream(1)
	for _, votes := range batches {
		if _, err := st.AddBatch(votes); err != nil {
			return nil, err
		}
	}
	return st, nil
})

// agedCheckpoint returns the aged stream and its checkpoint.
func agedCheckpoint(tb testing.TB) (*Stream, []byte) {
	tb.Helper()
	st, err := agedStream()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Checkpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return st, buf.Bytes()
}

// BenchmarkCheckpointEncode: one full checkpoint of the aged stream into
// memory — what every compaction and drain pays.
func BenchmarkCheckpointEncode(b *testing.B) {
	st, data := agedCheckpoint(b)
	var buf bytes.Buffer
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := st.Checkpoint(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRestore: one CheckpointSink.Restore of the aged
// stream's checkpoint from disk — what every restart pays: read, parse,
// validate, install.
func BenchmarkCheckpointRestore(b *testing.B) {
	_, data := agedCheckpoint(b)
	path := filepath.Join(b.TempDir(), "state.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, report, err := NewCheckpointSink(path).Restore(1); err != nil || !report.Resumed {
			b.Fatalf("restore: %+v, %v", report, err)
		}
	}
}

// BenchmarkStreamAged: one AddBatch on the aged stream, of the next of the
// 40 scenario batches that follow its history — an ingest ack's share of
// the stream. The stream is restored from its checkpoint, outside the
// timer, before every run through the 40, so each batch meets the history
// it follows.
func BenchmarkStreamAged(b *testing.B) {
	_, data := agedCheckpoint(b)
	batches, err := agedScenario(agedBatches + 40)
	if err != nil {
		b.Fatal(err)
	}
	next := batches[agedBatches:]
	var st *Stream
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(next) == 0 {
			b.StopTimer()
			if st, err = RestoreShardedStream(bytes.NewReader(data), 1); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := st.AddBatch(next[i%len(next)]); err != nil {
			b.Fatal(err)
		}
	}
}
