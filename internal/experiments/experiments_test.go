package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func quick() Options { return Options{Seed: 2, Quick: true} }

func TestRunnersCoverEveryTableAndFigure(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"table7", "figure2", "figure3a", "figure3b", "figure3c", "ablation"}
	names := Names()
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("runner %q missing", w)
		}
	}
	if _, ok := ByName("table4"); !ok {
		t.Error("ByName(table4) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName should reject unknown names")
	}
}

func TestTable1Shape(t *testing.T) {
	tab, err := Table1(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Errorf("Table 1 has %d rows, want 12", len(tab.Rows))
	}
	if len(tab.Header) != 7 { // fact + 5 sources + correct value
		t.Errorf("Table 1 header has %d columns", len(tab.Header))
	}
}

func TestTable2MatchesPaperExactly(t *testing.T) {
	tab, err := Table2(quick())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][3]string{
		"TwoEstimate":   {"0.64", "1.00", "0.67"},
		"BayesEstimate": {"0.58", "1.00", "0.58"},
		"IncEstHeu":     {"0.78", "1.00", "0.83"},
	}
	for _, row := range tab.Rows {
		w, ok := want[row[0]]
		if !ok {
			t.Errorf("unexpected method %q", row[0])
			continue
		}
		for i := 0; i < 3; i++ {
			if row[i+1] != w[i] {
				t.Errorf("%s column %d = %s, want %s (paper Table 2)", row[0], i, row[i+1], w[i])
			}
		}
		delete(want, row[0])
	}
	if len(want) != 0 {
		t.Errorf("methods missing from Table 2: %v", want)
	}
}

// TestTable6TimesRankable: every time cell of the quick Table 6 is a
// positive duration, so the table ranks even the methods that finish in
// well under a millisecond.
func TestTable6TimesRankable(t *testing.T) {
	tab, err := Table6(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if d, err := time.ParseDuration(row[1]); err != nil || d <= 0 {
			t.Errorf("%s took %q, want a positive duration (%v)", row[0], row[1], err)
		}
	}
}

func TestTable4QuickShape(t *testing.T) {
	tab, err := Table4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Errorf("Table 4 has %d method rows, want 9", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Errorf("row %v has %d cells, header has %d", row[0], len(row), len(tab.Header))
		}
	}
}

func TestTable5IncludesMSEColumn(t *testing.T) {
	tab, err := Table5(quick())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Header[len(tab.Header)-1] != "MSE" {
		t.Errorf("last column = %q, want MSE", tab.Header[len(tab.Header)-1])
	}
	if len(tab.Rows) < 5 {
		t.Errorf("Table 5 has %d rows", len(tab.Rows))
	}
}

func TestTable7QuickShape(t *testing.T) {
	tab, err := Table7(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Errorf("Table 7 has %d rows, want 5", len(tab.Rows))
	}
}

func TestFigure2HasBothStrategies(t *testing.T) {
	tab, err := Figure2(quick())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, row := range tab.Rows {
		seen[row[0]] = true
	}
	if !seen["IncEstPS"] || !seen["IncEstScale"] {
		t.Errorf("Figure 2 strategies = %v", seen)
	}
}

func TestFigure3Runners(t *testing.T) {
	for _, run := range []func(Options) (*Table, error){Figure3a, Figure3b, Figure3c} {
		tab, err := run(quick())
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) < 4 {
			t.Errorf("%s has %d rows", tab.ID, len(tab.Rows))
		}
		if len(tab.Header) != 6 { // x + 5 methods
			t.Errorf("%s header has %d columns", tab.ID, len(tab.Header))
		}
	}
}

func TestAblationRuns(t *testing.T) {
	tab, err := Ablation(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 8 {
		t.Errorf("ablation has %d rows", len(tab.Rows))
	}
}

func TestRenderAligned(t *testing.T) {
	tab := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"x", "1"}, {"yyyy", "2"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T: demo ==", "long-column", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite takes ~10s")
	}
	var buf bytes.Buffer
	if err := RunAll(quick(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"Table 1", "Table 4", "Table 7", "Figure 2", "Figure 3(c)", "Ablation"} {
		if !strings.Contains(out, "== "+id) {
			t.Errorf("RunAll output missing %s", id)
		}
	}
}

func TestExtendedRunner(t *testing.T) {
	tab, err := Extended(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 7 {
		t.Errorf("Extended has %d rows, want 7", len(tab.Rows))
	}
}

func TestSeedsRunner(t *testing.T) {
	tab, err := Seeds(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 15 { // 5 seeds x 3 methods
		t.Errorf("Seeds has %d rows, want 15", len(tab.Rows))
	}
}

func TestTableWriteCSV(t *testing.T) {
	tab, err := Table2(quick())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "method,precision,recall,accuracy") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "IncEstHeu,0.78,1.00,0.83") {
		t.Errorf("CSV row missing:\n%s", out)
	}
}
