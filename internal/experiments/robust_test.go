package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// The robustness smoke test: deterministic accuracy floors on the quick
// grid, so a PR that degrades behavior under attack fails loudly instead
// of only shifting numbers in the next `experiments -robustness-json`
// grid. Floors sit below the current values (see README's table and the
// grid kept in BENCH_3.json) with margin for benign drift; the
// grid is seeded, so a tripped floor is a real behavior change, not noise.

func quickGrid(t *testing.T) *RobustnessReport {
	t.Helper()
	rep, err := RobustnessGrid(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRobustnessGridShape(t *testing.T) {
	rep := quickGrid(t)
	if len(rep.Fractions) < 3 || len(rep.Batches) < 3 {
		t.Fatalf("grid must sweep >= 3 fractions x >= 3 batch counts, got %v x %v", rep.Fractions, rep.Batches)
	}
	methods := make(map[string]bool)
	for _, c := range rep.Cells {
		methods[c.Method] = true
		if c.Accuracy < 0 || c.Accuracy > 1 {
			t.Errorf("%s f=%v b=%d: accuracy %v out of [0, 1]", c.Method, c.Fraction, c.Batches, c.Accuracy)
		}
	}
	points := len(rep.Fractions) * len(rep.Batches)
	if want := len(methods) * points; len(rep.Cells) != want {
		t.Errorf("%d cells, want %d (%d methods x %d grid points)", len(rep.Cells), want, len(methods), points)
	}
	for _, m := range []string{"Voting", "IncEstScale", "DependVoting", "IncEstScale-stream", "IncEstScale-stream decay=0.6"} {
		if !methods[m] {
			t.Errorf("method %q missing from the grid", m)
		}
	}
}

func TestRobustnessGridDeterministic(t *testing.T) {
	a, b := quickGrid(t), quickGrid(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, same options: robustness grids differ")
	}
}

func TestRobustnessFloors(t *testing.T) {
	rep := quickGrid(t)
	floors := []struct {
		method   string
		fraction float64
		batches  int
		min      float64
	}{
		// Clean regime: the paper's methods work when their independence
		// assumption holds.
		{"Voting", 0, 2, 0.90},
		{"TwoEstimate", 0, 2, 0.90},
		{"IncEstScale", 0, 2, 0.90},
		{"IncEstScale-stream", 0, 2, 0.90},
		// Under a 25% coordinated attack the resilient methods must hold.
		{"ML-Logistic", 0.25, 3, 0.85},
		{"TwoEstimate", 0.25, 3, 0.85},
		{"IncEstScale-stream", 0.25, 3, 0.70},
		{"IncEstScale-stream decay=0.6", 0.25, 3, 0.70},
		// Half-adversarial: supervised methods still separate the regimes.
		{"ML-Logistic", 0.5, 4, 0.85},
		{"IncEstScale-stream decay=0.6", 0.5, 4, 0.60},
	}
	for _, f := range floors {
		got := rep.Accuracy(f.method, f.fraction, f.batches)
		if got < 0 {
			t.Errorf("%s f=%v b=%d: cell missing", f.method, f.fraction, f.batches)
		} else if got < f.min {
			t.Errorf("%s f=%v b=%d: accuracy %.3f below floor %.2f", f.method, f.fraction, f.batches, got, f.min)
		}
	}
	// The inversion itself is part of the contract: unsupervised incremental
	// estimation collapses under the coordinated bloc. If this "floor" rises,
	// the attack model went soft — which would quietly weaken every other
	// floor above.
	if got := rep.Accuracy("IncEstScale", 0.25, 3); got > 0.5 {
		t.Errorf("IncEstScale under 25%% attack = %.3f; expected collapse (<= 0.5) — did the scenario model weaken?", got)
	}
}

func TestRobustnessTableRender(t *testing.T) {
	tab, err := Robustness(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 9; len(tab.Header) != want {
		t.Fatalf("header has %d columns, want %d", len(tab.Header), want)
	}
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"IncEstScale-stream", "DependVoting"} {
		if !strings.Contains(b.String(), m) {
			t.Errorf("rendered table is missing row %q", m)
		}
	}
}

func TestRobustnessMarkdownShape(t *testing.T) {
	md, err := RobustnessMarkdown(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(md, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("markdown table has %d lines, want header + separator + rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "| method |") {
		t.Errorf("header line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "|---|") {
		t.Errorf("separator line = %q", lines[1])
	}
	cols := strings.Count(lines[0], "|")
	for i, l := range lines {
		if strings.Count(l, "|") != cols {
			t.Errorf("line %d has ragged columns: %q", i, l)
		}
	}
}
