package corroborate_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"corroborate"
	"corroborate/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenDatasets returns the two substrates the differential suite locks
// down: the paper's motivating example and a seeded synthetic world. Both
// are fully labeled, so the ML comparators' cross-validation covers every
// fact.
func goldenDatasets(t *testing.T) map[string]*corroborate.Dataset {
	t.Helper()
	w, err := synth.Generate(synth.Config{
		Facts:             300,
		AccurateSources:   6,
		InaccurateSources: 2,
		Seed:              7,
	})
	if err != nil {
		t.Fatalf("generating synth world: %v", err)
	}
	return map[string]*corroborate.Dataset{
		"motivating": corroborate.MotivatingExample(),
		"synth":      w.Dataset,
	}
}

// goldenMethods is the differential roster: every registered method plus
// the per-category wrapper.
func goldenMethods() []corroborate.Method {
	methods := corroborate.Methods()
	methods = append(methods, corroborate.DependVoting())
	methods = append(methods, corroborate.NewCategoryEstimate(
		func() corroborate.Method { return corroborate.IncEstScale() },
		corroborate.ByNamePrefix('/')))
	return methods
}

// renderResult serializes a Result byte-exactly: probabilities and trust
// use strconv's shortest round-trip formatting, so any bit-level change in
// the floating-point outputs changes the rendering.
func renderResult(r *corroborate.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "method %s\n", r.Method)
	fmt.Fprintf(&b, "iterations %d\n", r.Iterations)
	for f, p := range r.FactProb {
		fmt.Fprintf(&b, "fact %d %s %s\n", f,
			strconv.FormatFloat(p, 'g', -1, 64), r.Predictions[f])
	}
	if r.Trust == nil {
		b.WriteString("trust nil\n")
	} else {
		for s, tr := range r.Trust {
			fmt.Fprintf(&b, "trust %d %s\n", s, strconv.FormatFloat(tr, 'g', -1, 64))
		}
	}
	return b.String()
}

// slugOf converts a method display name into a golden-file stem.
func slugOf(name string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimRight(b.String(), "-")
}

// TestGoldenDifferential locks the exact Result of every method on both
// substrates: the engine-runtime migration must keep each one byte
// identical to the pre-refactor output captured in testdata/golden.
// Regenerate with `make golden` (go test . -run GoldenDifferential -update).
func TestGoldenDifferential(t *testing.T) {
	datasets := goldenDatasets(t)
	for _, m := range goldenMethods() {
		for dsName, d := range datasets {
			m, dsName, d := m, dsName, d
			t.Run(slugOf(m.Name())+"/"+dsName, func(t *testing.T) {
				t.Parallel()
				r, err := m.RunWith(context.Background(), d, corroborate.RunOptions{})
				if err != nil {
					t.Fatalf("%s on %s: %v", m.Name(), dsName, err)
				}
				got := renderResult(r)
				path := filepath.Join("testdata", "golden", slugOf(m.Name())+"_"+dsName+".golden")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run `make golden`): %v", err)
				}
				if got != string(want) {
					t.Errorf("%s on %s diverged from the pre-refactor golden output\n--- got ---\n%s--- want ---\n%s",
						m.Name(), dsName, truncate(got, 2000), truncate(string(want), 2000))
				}
			})
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…(truncated)\n"
}
