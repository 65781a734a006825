// Command perfbench is the repository's benchmark. It runs one workload
// from one process with one closed-loop client, checks every output, and
// prints its metrics as the last line of standard output:
//
//	python3 perfbench/run.py --workload ingest-aged --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists and what it should move):
//
//	ingest-aged  a durable tenant restored from an aged checkpoint acks the
//	             next batches, each absorbed, checkpointed and fsynced
//	query-aged   the same tenant answers a fixed seeded mix of seven query kinds
//	batch-synth  IncEstHeu runs to completion on the §6.3.1 synthetic world
//
// With --trace 0 the metrics are the six end-to-end ones, measured
// untraced. With --trace 1 they are the per-layer ones: the run measures
// the workload untraced and traced, then replays the seeded inputs through
// every layer's public functions with a span around each call, and writes
// the spans to .bench_build/traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workDir holds everything a run writes: checkpoints, the synthetic CSV
// and traces. It lies inside the checkout and is ignored by git.
const workDir = ".bench_build"

// runLimit bounds a whole run; measuring stops starting new work after
// measureLimit so checks and replays still finish inside it.
const (
	runLimit     = 170 * time.Second
	measureLimit = 110 * time.Second
)

var workloads = []string{"ingest-aged", "query-aged", "batch-synth"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&opt.seed, "seed", defaultSeed, fmt.Sprintf("input seed (%d is reserved for confirming claims)", confirmSeed))
	fs.IntVar(&opt.seconds, "seconds", 30, "how long the measured phase runs, at least")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	switch {
	case fs.NArg() > 0:
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	case !slices.Contains(workloads, opt.workload):
		return opt, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloads, ", "))
	case opt.seconds < 1:
		return opt, fmt.Errorf("--seconds %d: want at least 1", opt.seconds)
	case trace != 0 && trace != 1:
		return opt, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	opt.trace = trace == 1
	return opt, nil
}

func main() {
	start := time.Now()
	hardStop = start.Add(measureLimit)
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: still running after %v; giving up\n", runLimit)
		os.Exit(3)
	})
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	watchdog.Stop()
	os.Exit(code)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	dir := filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var out *outcome
	if opt.trace {
		out, err = traced(opt, dir)
	} else {
		out, err = measured(opt, dir)
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEndDefs
	if opt.trace {
		defs = perLayerDefs
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, n := range out.notes {
		fmt.Fprintln(stderr, "perfbench: failed:", n)
	}
	diag, err := json.Marshal(map[string]any{"diagnostics": out.diag})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", diag, line)
	return 0
}

// outcome is what one run measured, before it is printed.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int
	notes             []string
	// diag is printed beside the metrics and never gated: host state,
	// input sizes, accuracy, self times.
	diag map[string]any
}

// inputs are the seeded inputs of one run.
type inputs struct {
	serve   *serveInputs
	csvPath string
}

// prepare generates the inputs a run needs: the serve inputs for the
// serve workloads (all of them when traced), the synthetic CSV for
// batch-synth.
func prepare(opt options, dir string) (inputs, error) {
	var in inputs
	var err error
	if opt.trace || opt.workload != "batch-synth" {
		if in.serve, err = makeServeInputs(opt.seed, benchSizes); err != nil {
			return in, err
		}
	}
	if opt.trace || opt.workload == "batch-synth" {
		csv, err := synthCSV(opt.seed, benchSizes)
		if err != nil {
			return in, err
		}
		in.csvPath = filepath.Join(dir, "synth.csv")
		if err := os.WriteFile(in.csvPath, csv, 0o644); err != nil {
			return in, err
		}
	}
	return in, nil
}

// runWorkload runs the named workload's measured phase for budget.
func runWorkload(name string, in inputs, dir string, budget time.Duration, tr *tracer) (*phase, map[string]any, error) {
	diag := map[string]any{}
	var p *phase
	var err error
	switch name {
	case "ingest-aged":
		p, err = runIngest(in.serve, dir, budget, tr)
	case "query-aged":
		p, err = runQuery(in.serve, dir, budget, tr)
	case "batch-synth":
		var acc float64
		p, acc, err = runBatch(in.csvPath, budget, tr)
		diag["accuracy"] = acc
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, nil, err
	}
	diag["ops"], diag["setups"] = p.attempted, len(p.setups)
	return p, diag, nil
}

// measured is an untraced run: inputs first, then, with their garbage
// freed and the RSS high-water mark reset, set-up and the measured phase.
func measured(opt options, dir string) (*outcome, error) {
	in, err := prepare(opt, dir)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	h, err := startHost()
	if err != nil {
		return nil, err
	}
	p, diag, err := runWorkload(opt.workload, in, dir, time.Duration(opt.seconds)*time.Second, nil)
	if err != nil {
		return nil, err
	}
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if err := h.finish(); err != nil {
		return nil, err
	}
	addInputDiag(diag, opt, in)
	diag["host"] = hostDiag(h)
	diag["blocks"] = map[string]any{"kept": len(p.quiet()), "of": len(p.blocks), "timings_all_blocks": p.timings(p.blocks)}
	return &outcome{metrics: p.endToEnd(peak), attempted: p.attempted, failed: p.failed, notes: p.notes, diag: diag}, nil
}

// traced is a traced run: the workload measured for the budget with every
// other op traced, which gives the tracing overhead and the runtime
// counters per op, then every layer replay.
func traced(opt options, dir string) (*outcome, error) {
	in, err := prepare(opt, dir)
	if err != nil {
		return nil, err
	}
	h, err := startHost()
	if err != nil {
		return nil, err
	}
	opTrace := newTracer("workload")
	opTrace.alternate = true
	p, diag, err := runWorkload(opt.workload, in, dir, time.Duration(opt.seconds)*time.Second, opTrace)
	if err != nil {
		return nil, err
	}
	if err := h.finish(); err != nil {
		return nil, err
	}
	layerTrace := newTracer("layers")
	out := &outcome{attempted: p.attempted, failed: p.failed, notes: p.notes, diag: diag}
	for _, replay := range []func() (int, int, error){
		func() (int, int, error) { return replayIngest(in.serve, dir, layerTrace) },
		func() (int, int, error) { return replayQuery(in.serve, dir, layerTrace) },
		func() (int, int, error) { return replayRestart(in.serve, dir, layerTrace) },
		func() (int, int, error) { return replayBatch(in.csvPath, layerTrace) },
	} {
		a, f, err := replay()
		if err != nil {
			return nil, err
		}
		out.attempted += a
		out.failed += f
	}

	st := summarize(layerTrace.spans)
	m := layerMetrics(st)
	first, maxRound := roundStats(layerTrace.spans)
	m["engine.first_round_ms"], m["engine.round_max_ms"] = first, maxRound
	if n := float64(p.attempted); n > 0 {
		m["runtime.alloc_mb_per_op"] = float64(p.allocBytes) / (1 << 20) / n
		m["runtime.gc_per_op"] = float64(p.gcCycles) / n
		m["runtime.gc_pause_ms_per_op"] = p.gcPause * 1000 / n
	}
	m["host.steal_pct"] = h.stealPct
	m["host.canary_ms"] = h.canaryMs()
	// Ops alternate traced (odd op IDs, even indices) and untraced.
	var on, off []float64
	for i, l := range p.lat {
		if i%2 == 0 {
			on = append(on, l)
		} else {
			off = append(off, l)
		}
	}
	m["trace.overhead_ms"] = median(on) - median(off)
	// The op's unattributed remainder is the self time of the span the
	// workload's layers hang from.
	switch opt.workload {
	case "ingest-aged":
		m["trace.unattributed_ms"] = median(st.self["serve.ingest.handler"])
	case "query-aged":
		var self []float64
		for _, kind := range queryKinds {
			self = append(self, st.self["serve.query."+kind+".handler"]...)
		}
		m["trace.unattributed_ms"] = median(self)
	case "batch-synth":
		m["trace.unattributed_ms"] = median(st.self["core.incestimate.run"])
	}
	out.metrics = m

	addInputDiag(diag, opt, in)
	diag["host"] = hostDiag(h)
	diag["self_ms"] = selfTables(layerTrace.spans)
	traces := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traces, fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
	if err := writeSpans(path, opTrace, layerTrace); err != nil {
		return nil, err
	}
	diag["spans"] = path
	return out, nil
}

// roundStats returns, as medians over IncEstHeu runs, the time to the
// first round and the longest round of each run.
func roundStats(spans []span) (firstMs, maxMs float64) {
	type run struct{ first, longest span }
	byOp := make(map[int]*run)
	var ops []int
	for _, s := range spans {
		if s.Name != "engine.round" {
			continue
		}
		r, ok := byOp[s.Op]
		if !ok {
			r = &run{first: s, longest: s}
			byOp[s.Op] = r
			ops = append(ops, s.Op)
		}
		if s.Start < r.first.Start {
			r.first = s
		}
		if s.dur() > r.longest.dur() {
			r.longest = s
		}
	}
	var firsts, longest []float64
	for _, op := range ops {
		firsts = append(firsts, ms(time.Duration(byOp[op].first.dur())))
		longest = append(longest, ms(time.Duration(byOp[op].longest.dur())))
	}
	return median(firsts), median(longest)
}

// selfTables lists, for every kind of op (named by its root span), the
// median self time of each span name in those ops, largest first.
func selfTables(spans []span) map[string][]map[string]any {
	roots := make(map[int]string)
	for _, s := range spans {
		if s.Parent == 0 {
			roots[s.Op] = s.Name
		}
	}
	self := selfTimes(spans)
	byRoot := make(map[string]map[string][]float64)
	order := make(map[string][]string)
	for i, s := range spans {
		root := roots[s.Op]
		if byRoot[root] == nil {
			byRoot[root] = make(map[string][]float64)
		}
		if _, seen := byRoot[root][s.Name]; !seen {
			order[root] = append(order[root], s.Name)
		}
		byRoot[root][s.Name] = append(byRoot[root][s.Name], ms(time.Duration(self[i])))
	}
	out := make(map[string][]map[string]any, len(order))
	for root, names := range order {
		med := make(map[string]float64, len(names))
		for _, n := range names {
			med[n] = median(byRoot[root][n])
		}
		sort.SliceStable(names, func(i, j int) bool { return med[names[i]] > med[names[j]] })
		rows := make([]map[string]any, len(names))
		for i, n := range names {
			rows[i] = map[string]any{"span": n, "self_ms": med[n], "calls": len(byRoot[root][n])}
		}
		out[root] = rows
	}
	return out
}

func addInputDiag(diag map[string]any, opt options, in inputs) {
	diag["workload"], diag["seed"] = opt.workload, opt.seed
	if in.serve != nil {
		diag["aged"] = map[string]int{
			"batches":          in.serve.agedBatches,
			"facts":            in.serve.agedFacts,
			"sources":          in.serve.agedSources,
			"checkpoint_bytes": len(in.serve.aged),
			"epoch_batches":    len(in.serve.bodies),
		}
	}
}

// hostDiag records the host beside every run: the figures ROADMAP's
// canaries call for, and what the run ran on.
func hostDiag(h *host) map[string]any {
	d := map[string]any{
		"host.steal_pct":   h.stealPct,
		"host.canary_ms":   h.canaryMs(),
		"canary_before_ms": median(h.canaryBefore),
		"canary_after_ms":  median(h.canaryAfter),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go":               runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) >= 3 {
			d["loadavg"] = strings.Join(f[:3], " ")
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				d["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(workDir, &fs); err == nil {
		d["fs_magic"] = fmt.Sprintf("%#x", fs.Type)
	}
	return d
}
