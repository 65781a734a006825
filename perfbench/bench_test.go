package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"corroborate/internal/metrics"
	"corroborate/internal/serve"
	"corroborate/internal/truth"
)

// testSizes keep the tests fast; the benchmark always runs at benchSizes.
var testSizes = sizes{
	AgedBatches:    20,
	FactsPerBatch:  10,
	HonestSlots:    4,
	ChurnRate:      0.2,
	EpochBatches:   5,
	QueriesPerKind: 2,
	SynthFacts:     1000,
}

func TestPercentileIsNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > percentile(xs, 90) {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p90 of %d, want 10", beyond, minOps)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 100, 4},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}

func TestQuietBlocksKeepHalfAndEnoughOps(t *testing.T) {
	p := &phase{lat: make([]float64, 400)}
	for i := range p.lat {
		p.lat[i] = float64(i % 7)
	}
	// Eight blocks of 50 ops; block i has steal (8-i)%, so the last four
	// are the quietest.
	for i := 0; i < 8; i++ {
		p.blocks = append(p.blocks, block{first: 50 * i, end: 50 * (i + 1), wall: time.Second, cpu: time.Second, steal: float64(8-i) / 100})
	}
	kept := p.quiet()
	if len(kept) != 4 || kept[0].first != 350 || kept[3].first != 200 {
		t.Errorf("kept %+v, want the four quietest blocks, quietest first", kept)
	}
	// Blocks of 20 ops: half of them hold only 80 ops, so quieter-first
	// selection goes on until minOps are in.
	p.blocks = p.blocks[:0]
	for i := 0; i < 8; i++ {
		p.blocks = append(p.blocks, block{first: 20 * i, end: 20 * (i + 1), wall: time.Second, steal: float64(i) / 100})
	}
	if kept := p.quiet(); len(kept) != 5 || kept[4].first != 80 {
		t.Errorf("kept %d blocks (%+v), want 5 holding at least %d ops", len(kept), kept, minOps)
	}
	m := p.timings(p.blocks[:2])
	if m["throughput_ops_s"] != 20 || m["p50_ms"] != 3 {
		t.Errorf("timings over two blocks = %v", m)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks the name grammar and that the program prints
// exactly the metrics BENCHMARK.json declares, with the same units.
func TestMetricNames(t *testing.T) {
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, group := range []struct {
		defs     []metricDef
		declared []struct{ Name, Unit string }
	}{{endToEndDefs, bench.EndToEnd}, {perLayerDefs, bench.PerLayer}} {
		if len(group.defs) != len(group.declared) {
			t.Errorf("program prints %d metrics, BENCHMARK.json declares %d", len(group.defs), len(group.declared))
			continue
		}
		for i, d := range group.defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("metric %q unit %q breaks the grammar", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %q is defined twice", d.name)
			}
			seen[d.name] = true
			if got := group.declared[i]; got.Name != d.name || got.Unit != d.unit {
				t.Errorf("metric %d is %s [%s] in the program, %s [%s] in BENCHMARK.json", i, d.name, d.unit, got.Name, got.Unit)
			}
		}
	}
	for _, bad := range []string{"", "-lead", "has space", "p50/ms", strings.Repeat("x", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("grammar accepts %q", bad)
		}
	}
}

// fingerprint flattens every generated input into bytes.
func fingerprint(t *testing.T, seed int64) []byte {
	t.Helper()
	in, err := makeServeInputs(seed, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := synthCSV(seed, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.Write(in.aged)
	for i := range in.bodies {
		b.Write(in.bodies[i])
		b.Write(in.wantFacts[i])
	}
	b.Write(in.wantCheckpoint)
	for _, q := range in.cycle {
		want, err := json.Marshal(q.want)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(q.kind + q.path)
		b.Write(want)
	}
	b.Write(csv)
	return b.Bytes()
}

func TestInputsFollowTheSeed(t *testing.T) {
	a, again, other := fingerprint(t, 1), fingerprint(t, 1), fingerprint(t, 2)
	if !bytes.Equal(a, again) {
		t.Error("the same seed produced different inputs")
	}
	if bytes.Equal(a, other) {
		t.Error("different seeds produced the same inputs")
	}
}

// TestSynthSeedOnlyRelabels pins the reason batch-synth may vary the seed:
// a seed presents the same world differently, so IncEstHeu runs the same
// rounds to the same result. It runs at the benchmark's size, where seeds
// 1101 and 1106 once changed the run by reordering the source columns.
func TestSynthSeedOnlyRelabels(t *testing.T) {
	type run struct {
		rounds   int64
		accuracy float64
	}
	var first run
	for i, seed := range []int64{defaultSeed, 1101, 1106} {
		csv, err := synthCSV(seed, benchSizes)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "synth.csv")
		if err := os.WriteFile(path, csv, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := truth.LoadCSV(path)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer("test")
		r, err := incEstHeu(context.Background(), d, tr)
		if err != nil {
			t.Fatal(err)
		}
		got := run{rounds: tr.spans[0].Count, accuracy: metrics.Evaluate(d, r).Accuracy}
		if i == 0 {
			first = got
		} else if got != first {
			t.Errorf("seed %d ran %+v, seed %d ran %+v; want the same work", seed, got, defaultSeed, first)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 25, End: 50}, // overlaps a: union 10..50
		{ID: 4, Parent: 3, Name: "c", Start: 30, End: 40},
		{ID: 5, Name: "outer", Start: 200, End: 260},
		{ID: 6, Parent: 5, Name: "replayed", Start: 300, End: 320}, // after its parent
		{ID: 7, Parent: 5, Name: "replayed", Start: 330, End: 345},
	}
	want := []int64{100 - 40, 20, 25 - 10, 10, 60 - 35, 20, 15}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerAlternates(t *testing.T) {
	tr := newTracer("test")
	tr.alternate = true
	for i := 0; i < 4; i++ {
		tr.end(tr.start("op", tr.newOp(), 0))
	}
	if len(tr.spans) != 2 || tr.spans[0].Op != 1 || tr.spans[1].Op != 3 {
		t.Errorf("alternating tracer kept %+v, want ops 1 and 3", tr.spans)
	}
	var none *tracer
	none.end(none.start("op", none.newOp(), 0)) // a nil tracer records nothing
}

func TestAckCheckRejectsTampering(t *testing.T) {
	facts := []serve.FactJSON{{Fact: "b020-f00001", Batch: 20, Probability: 0.8125, Prediction: truth.True}}
	want, err := json.Marshal(facts)
	if err != nil {
		t.Fatal(err)
	}
	ack := func(tenantName string, batch int, facts []serve.FactJSON) []byte {
		b, err := json.Marshal(serve.IngestResponse{Tenant: tenantName, Batch: batch, Facts: facts})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := checkAck(ack(tenant, 20, facts), 20, want); err != nil {
		t.Fatalf("genuine ack rejected: %v", err)
	}
	tampered := []serve.FactJSON{facts[0]}
	tampered[0].Probability = 0.8126
	flipped := []serve.FactJSON{facts[0]}
	flipped[0].Prediction = truth.False
	for name, body := range map[string][]byte{
		"probability": ack(tenant, 20, tampered),
		"prediction":  ack(tenant, 20, flipped),
		"batch":       ack(tenant, 21, facts),
		"tenant":      ack("other", 20, facts),
		"no facts":    ack(tenant, 20, nil),
		"not json":    []byte("ok"),
	} {
		if checkAck(body, 20, want) == nil {
			t.Errorf("tampered ack (%s) accepted", name)
		}
	}
}

func TestCheckpointCheckRejectsTampering(t *testing.T) {
	want := []byte(`{"format":"corroborate-stream-checkpoint","state":{}}` + "\n")
	if err := checkCheckpoint(append([]byte(nil), want...), want); err != nil {
		t.Fatalf("identical checkpoint rejected: %v", err)
	}
	flipped := append([]byte(nil), want...)
	flipped[20] ^= 1
	for name, got := range map[string][]byte{"flipped byte": flipped, "truncated": want[:len(want)-1], "empty": nil} {
		if checkCheckpoint(got, want) == nil {
			t.Errorf("tampered checkpoint (%s) accepted", name)
		}
	}
}

func TestQueryChecksRejectTampering(t *testing.T) {
	in, err := makeServeInputs(1, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	checkedKinds := map[string]bool{}
	for _, q := range in.cycle {
		if checkedKinds[q.kind] {
			continue
		}
		checkedKinds[q.kind] = true
		good, err := json.Marshal(q.want)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkQuery(good, q.want); err != nil {
			t.Fatalf("%s: reference answer rejected: %v", q.path, err)
		}
		var bad []byte
		switch w := q.want.(type) {
		case serve.QueryResponse:
			w.Total++
			if len(w.Facts) > 0 {
				w.Total--
				f := append([]serve.FactJSON(nil), w.Facts...)
				f[len(f)-1].Probability += 1e-12
				w.Facts = f
			}
			bad, err = json.Marshal(w)
		case serve.TrustResponse:
			s := append([]serve.SourceTrustJSON(nil), w.Sources...)
			s[0].Trust += 1e-12
			w.Sources = s
			bad, err = json.Marshal(w)
		}
		if err != nil {
			t.Fatal(err)
		}
		if checkQuery(bad, q.want) == nil {
			t.Errorf("%s: tampered answer accepted", q.path)
		}
		if checkRepeat(good, bad) == nil {
			t.Errorf("%s: repeat that differs from the first answer accepted", q.path)
		}
		if err := checkRepeat(good, append([]byte(nil), good...)); err != nil {
			t.Errorf("%s: identical repeat rejected: %v", q.path, err)
		}
	}
	if len(checkedKinds) != len(queryKinds) {
		t.Errorf("mix holds kinds %v, want all of %v", checkedKinds, queryKinds)
	}
}

func TestSameResultRejectsTampering(t *testing.T) {
	ref := &truth.Result{
		FactProb:    []float64{0.25, 0.75},
		Predictions: []truth.Label{truth.False, truth.True},
		Trust:       []float64{0.5, 0.9},
	}
	clone := func() *truth.Result {
		return &truth.Result{
			FactProb:    append([]float64(nil), ref.FactProb...),
			Predictions: append([]truth.Label(nil), ref.Predictions...),
			Trust:       append([]float64(nil), ref.Trust...),
		}
	}
	if err := sameResult(ref, clone()); err != nil {
		t.Fatalf("identical result rejected: %v", err)
	}
	prob, pred, trust, short := clone(), clone(), clone(), clone()
	prob.FactProb[1] = 0.7500000000000001
	pred.Predictions[0] = truth.True
	trust.Trust[1] = 0.89
	short.Trust = short.Trust[:1]
	for name, r := range map[string]*truth.Result{"probability": prob, "prediction": pred, "trust": trust, "shape": short} {
		if sameResult(ref, r) == nil {
			t.Errorf("tampered result (%s) accepted", name)
		}
	}
}

// TestWorkloadsPassTheirChecks runs each workload at test sizes against a
// real loopback tenant: every op must pass its output check.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	in, err := makeServeInputs(3, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, run := range map[string]func() (*phase, error){
		"ingest-aged": func() (*phase, error) { return runIngest(in, dir, time.Millisecond, nil) },
		"query-aged":  func() (*phase, error) { return runQuery(in, dir, time.Millisecond, newTracer("test")) },
	} {
		p, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.attempted < minOps || p.failed != 0 || len(p.setups) < minSetups {
			t.Errorf("%s: %d ops, %d failed (%v), %d set-ups", name, p.attempted, p.failed, p.notes, len(p.setups))
		}
	}
	tr := newTracer("test")
	for _, replay := range []func() (int, int, error){
		func() (int, int, error) { return replayIngest(in, dir, tr) },
		func() (int, int, error) { return replayQuery(in, dir, tr) },
		func() (int, int, error) { return replayRestart(in, dir, tr) },
	} {
		attempted, failed, err := replay()
		if err != nil || attempted == 0 || failed != 0 {
			t.Errorf("replay: %d ops, %d failed, err %v", attempted, failed, err)
		}
	}
}

func TestParseArgs(t *testing.T) {
	opt, err := parseArgs([]string{"--workload", "query-aged", "--seed", "7", "--seconds", "3", "--trace", "1"})
	if err != nil || opt != (options{workload: "query-aged", seed: 7, seconds: 3, trace: true}) {
		t.Errorf("parseArgs = %+v, %v", opt, err)
	}
	if opt, err := parseArgs([]string{"--workload", "batch-synth"}); err != nil || opt.seed != defaultSeed {
		t.Errorf("default seed: %+v, %v", opt, err)
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "batch-synth", "--trace", "2"},
		{"--workload", "batch-synth", "--seconds", "0"},
		{"--workload", "batch-synth", "extra"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("parseArgs(%q) accepted", args)
		}
	}
}
