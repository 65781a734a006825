// Benchmarks, one per table and figure of the paper, plus ablation and
// micro benchmarks. The per-table benchmarks regenerate the corresponding
// experiment on a reduced world per iteration (the full-size runs live in
// cmd/experiments); Table 6's sub-benchmarks time every method on the same
// restaurant world, which is exactly what the paper's Table 6 measures.
//
// Run with: go test -bench=. -benchmem
package corroborate_test

import (
	"context"
	"io"
	"sync"
	"testing"

	"corroborate"
	"corroborate/internal/experiments"
	"corroborate/internal/truth"
)

func benchOpts() experiments.Options {
	return experiments.Options{Seed: 2, Quick: true}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	r, ok := experiments.ByName(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := r.Run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Motivating(b *testing.B)  { runExperiment(b, "table1") }
func BenchmarkTable2Strategies(b *testing.B)  { runExperiment(b, "table2") }
func BenchmarkTable3SourceStats(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4Methods(b *testing.B)     { runExperiment(b, "table4") }
func BenchmarkTable5TrustMSE(b *testing.B)    { runExperiment(b, "table5") }
func BenchmarkTable7Hubdub(b *testing.B)      { runExperiment(b, "table7") }
func BenchmarkFigure2Trajectory(b *testing.B) { runExperiment(b, "figure2") }
func BenchmarkFigure3a(b *testing.B)          { runExperiment(b, "figure3a") }
func BenchmarkFigure3b(b *testing.B)          { runExperiment(b, "figure3b") }
func BenchmarkFigure3c(b *testing.B)          { runExperiment(b, "figure3c") }

// Shared full-size restaurant world for the Table 6 method timings.
var (
	table6Once  sync.Once
	table6World *corroborate.Dataset
)

func restaurantDataset(b *testing.B) *corroborate.Dataset {
	b.Helper()
	table6Once.Do(func() {
		w, err := corroborate.GenerateRestaurantWorld(corroborate.RestaurantConfig{Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		table6World = w.Dataset
	})
	return table6World
}

// BenchmarkTable6 is the paper's Table 6: wall-clock cost of each method on
// the full 36,916-listing restaurant world. Compare the per-op times of the
// sub-benchmarks to reproduce the table's ordering.
func BenchmarkTable6(b *testing.B) {
	d := restaurantDataset(b)
	for _, m := range corroborate.Methods() {
		m := m
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.RunWith(context.Background(), d, corroborate.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSelector compares the fact-selection strategies
// (DESIGN.md ablation: ∆H-driven vs greedy vs scale profile).
func BenchmarkAblationSelector(b *testing.B) {
	d := restaurantDataset(b)
	for _, e := range []*corroborate.IncEstimate{
		corroborate.IncEstHeu(),
		corroborate.IncEstPS(),
		corroborate.IncEstScale(),
	} {
		e := e
		b.Run(e.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunWith(context.Background(), d, corroborate.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBalanced compares the paper's balanced truncation
// against whole-group evaluation (DESIGN.md ablation).
func BenchmarkAblationBalanced(b *testing.B) {
	d := restaurantDataset(b)
	variants := []struct {
		name string
		e    *corroborate.IncEstimate
	}{
		{"balanced", corroborate.IncEstHeu()},
		{"full-groups", &corroborate.IncEstimate{FullGroups: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := v.e.RunWith(context.Background(), d, corroborate.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDedupPipeline measures the record-linkage pipeline on a
// synthetic raw crawl.
func BenchmarkDedupPipeline(b *testing.B) {
	raw, _ := corroborate.GenerateCrawl(corroborate.CrawlConfig{Entities: 2000, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corroborate.Deduplicate(raw, corroborate.DedupOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerators measures the dataset generators themselves.
func BenchmarkGenerators(b *testing.B) {
	b.Run("restaurant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := corroborate.GenerateRestaurantWorld(corroborate.RestaurantConfig{
				Listings: 5000, GoldenSize: 300, GoldenTrue: 170, Seed: int64(i + 1),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("synth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := corroborate.GenerateSynthWorld(corroborate.SynthConfig{
				Facts: 5000, AccurateSources: 8, InaccurateSources: 2, Seed: int64(i + 1),
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hubdub", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := corroborate.GenerateHubdubWorld(corroborate.HubdubConfig{Seed: int64(i + 1)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMotivatingAllMethods measures every method on the 12-fact toy —
// the constant-factor floor of each implementation.
func BenchmarkMotivatingAllMethods(b *testing.B) {
	d := truth.MotivatingExample()
	for _, m := range corroborate.Methods() {
		m := m
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.RunWith(context.Background(), d, corroborate.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
