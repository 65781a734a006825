package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestAnalyzerGolden loads each fixture package under testdata, runs the
// analyzer(s) it targets, and compares the rendered findings against the
// directory's golden.txt. Each fixture mixes positive cases (expected in the
// golden file) with negative ones (expected absent), so the golden file
// asserts both halves at once. Regenerate with `go test ./internal/lint
// -run Golden -update`.
func TestAnalyzerGolden(t *testing.T) {
	cases := []struct {
		dir       string
		analyzers string // comma-separated subset; "" runs the full suite
	}{
		{dir: "floatexact", analyzers: "floatexact"},
		{dir: "logguard", analyzers: "logguard"},
		{dir: "mapdet", analyzers: "mapdet"},
		{dir: "heapdet", analyzers: "heapdet"},
		{dir: "globalrand", analyzers: "globalrand"},
		{dir: "gonosync", analyzers: "gonosync"},
		{dir: "closecheck", analyzers: "closecheck"},
		{dir: "loopdriver", analyzers: "loopdriver"},
		{dir: "pipemat", analyzers: "pipemat"},
		{dir: "detflow", analyzers: "detflow"},
		{dir: "ctxloop", analyzers: "ctxloop"},
		{dir: "sharedmutate", analyzers: "sharedmutate"},
		{dir: "suppress", analyzers: ""},
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			analyzers, err := AnalyzersByName(tc.analyzers)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join("testdata", tc.dir)
			pkgs, err := loader.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkgs) == 0 {
				t.Fatalf("no Go packages in %s", dir)
			}
			var lines []string
			for _, pkg := range pkgs {
				for _, e := range pkg.TypeErrors {
					t.Errorf("fixture does not type-check: %v", e)
				}
				for _, f := range Run(pkg, analyzers) {
					lines = append(lines, filepath.ToSlash(f.String()))
				}
			}
			got := strings.Join(lines, "\n")
			if got != "" {
				got += "\n"
			}
			goldenPath := filepath.Join(dir, "golden.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch in %s\n--- got ---\n%s--- want ---\n%s", dir, got, want)
			}
		})
	}
}

// TestInterproceduralMissedByIntraprocedural pins the acceptance claim of
// the dataflow analyzers: their fixture positives are invisible to the
// intraprocedural analyzers covering the same defect class. mapdet over the
// detflow fixture and gonosync over the sharedmutate fixture must both come
// back empty, while the interprocedural analyzer finds the cross-function
// cases.
func TestInterproceduralMissedByIntraprocedural(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		dir   string
		intra string // must report nothing
		inter string // must report something
	}{
		{dir: "detflow", intra: "mapdet", inter: "detflow"},
		{dir: "sharedmutate", intra: "gonosync", inter: "sharedmutate"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkgs, err := loader.LoadDir(filepath.Join("testdata", tc.dir))
			if err != nil {
				t.Fatal(err)
			}
			intra, _ := AnalyzersByName(tc.intra)
			inter, _ := AnalyzersByName(tc.inter)
			var intraN, interN int
			for _, pkg := range pkgs {
				intraFindings := Run(pkg, intra)
				intraN += len(intraFindings)
				for _, f := range intraFindings {
					t.Errorf("intraprocedural %s unexpectedly sees: %s", tc.intra, f)
				}
				interN += len(Run(pkg, inter))
			}
			if interN == 0 {
				t.Errorf("interprocedural %s found nothing in its own fixture", tc.inter)
			}
		})
	}
}

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		comment    string
		directive  bool // a //lint:ignore comment at all
		wellFormed bool
		analyzers  []string
		reason     string
	}{
		{comment: "// just a comment", directive: false},
		{comment: "//lint:ignore floatexact because reasons", directive: true, wellFormed: true, analyzers: []string{"floatexact"}, reason: "because reasons"},
		{comment: "//lint:ignore floatexact,logguard shared reason", directive: true, wellFormed: true, analyzers: []string{"floatexact", "logguard"}, reason: "shared reason"},
		{comment: "//lint:ignore floatexact, logguard sloppy comma-space list", directive: true, wellFormed: true, analyzers: []string{"floatexact", "logguard"}, reason: "sloppy comma-space list"},
		{comment: "//lint:ignore floatexact,logguard,mapdet three names", directive: true, wellFormed: true, analyzers: []string{"floatexact", "logguard", "mapdet"}, reason: "three names"},
		{comment: "//lint:ignore floatexact, logguard,", directive: true, wellFormed: false},
		{comment: "//lint:ignore floatexact", directive: true, wellFormed: false},
		{comment: "//lint:ignore floatexact   ", directive: true, wellFormed: false},
		{comment: "//lint:ignore", directive: true, wellFormed: false},
	}
	for _, tc := range cases {
		dir, ok := parseIgnore(tc.comment)
		if ok != tc.directive {
			t.Errorf("parseIgnore(%q) recognized=%v, want %v", tc.comment, ok, tc.directive)
			continue
		}
		if !tc.directive {
			continue
		}
		if (dir != nil) != tc.wellFormed {
			t.Errorf("parseIgnore(%q) well-formed=%v, want %v", tc.comment, dir != nil, tc.wellFormed)
			continue
		}
		if dir == nil {
			continue
		}
		if strings.Join(dir.analyzers, ",") != strings.Join(tc.analyzers, ",") {
			t.Errorf("parseIgnore(%q) analyzers=%v, want %v", tc.comment, dir.analyzers, tc.analyzers)
		}
		if dir.reason != tc.reason {
			t.Errorf("parseIgnore(%q) reason=%q, want %q", tc.comment, dir.reason, tc.reason)
		}
	}
}

func TestAnalyzersByName(t *testing.T) {
	all, err := AnalyzersByName("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Analyzers()) {
		t.Errorf("empty name list resolved %d analyzers, want the full suite of %d", len(all), len(Analyzers()))
	}
	subset, err := AnalyzersByName("mapdet, floatexact")
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 || subset[0].Name != "mapdet" || subset[1].Name != "floatexact" {
		t.Errorf("subset resolution returned %v", subset)
	}
	if _, err := AnalyzersByName("nope"); err == nil {
		t.Error("unknown analyzer name should be rejected")
	}
}

func TestExpandSkipsTestdata(t *testing.T) {
	dirs, err := Expand(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand must skip testdata, got %s", d)
		}
	}
}
