package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateStreamGolden = flag.Bool("update", false, "rewrite the golden stream fixtures under testdata/golden")

// streamGoldenConfigs are the multi-batch stream histories the golden
// fixture locks: several world shapes and batch partitions, covering both
// the sequential and (shape-identical) sharded paths. The fixture was
// generated before the trust-decay option existed, so it doubles as the
// proof that decay-disabled streams are byte-identical to the pre-decay
// engine.
var streamGoldenConfigs = []struct {
	name    string
	seed    uint64
	sources int
	facts   int
	parts   int
}{
	{"small-3batch", 7, 5, 60, 3},
	{"medium-5batch", 23, 8, 200, 5},
	{"wide-2batch", 101, 12, 120, 2},
}

// renderStreamState serializes a stream's complete observable state with
// exact float64 bit patterns (hex floats): the decided-fact log in
// evaluation order and the trust per source in name order.
func renderStreamState(st *Stream) string {
	var b strings.Builder
	for _, sf := range st.Decided() {
		fmt.Fprintf(&b, "fact %s batch=%d p=%s pred=%s\n",
			sf.Name, sf.Batch, strconv.FormatFloat(sf.Probability, 'x', -1, 64), sf.Prediction)
	}
	trust := st.Trust()
	names := make([]string, 0, len(trust))
	for name := range trust {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "trust %s %s\n", name, strconv.FormatFloat(trust[name], 'x', -1, 64))
	}
	return b.String()
}

// TestStreamGolden locks the stream engine's output bit-for-bit against
// committed fixtures: any change to the decision function, the absorption
// order, or the trust arithmetic shows up as a diff. Regenerate with
// `go test ./internal/core -run TestStreamGolden -update` only after a
// deliberate semantic change.
func TestStreamGolden(t *testing.T) {
	for _, cfg := range streamGoldenConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			st := NewShardedStream(1)
			d := randomDataset(cfg.seed, cfg.sources, cfg.facts)
			feed(t, st, splitByFact(d, cfg.parts))
			got := renderStreamState(st)

			path := filepath.Join("testdata", "golden", "stream_"+cfg.name+".txt")
			if *updateStreamGolden {
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
				t.Fatalf("missing golden fixture (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("stream output diverged from the pre-decay golden fixture %s\n--- got ---\n%s--- want ---\n%s",
					path, got, want)
			}
		})
	}
}
