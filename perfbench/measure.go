package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minOps is the fewest ops a measured phase may end with: at 100 ops the
// 90th percentile has 10 samples beyond it.
const minOps = 100

// percentile is the nearest-rank percentile p (0 < p ≤ 100) of xs: the
// smallest sample with at least p% of the samples at or below it. It
// sorts a copy and returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// resetPeakRSS makes the kernel's resident-set high-water mark restart
// from the current resident set, so input generation before it does not
// count toward peak_rss_mb.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeSample is one reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcPause    float64 // seconds, summed over the pause histogram
}

var runtimeNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/sched/pauses/total/gc:seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.gcPause = histogramSum(s[2].Value.Float64Histogram())
	}
	return out
}

// histogramSum estimates a histogram's total from each bucket's lower
// bound; the runtime's pause buckets are narrow, so the estimate is close.
func histogramSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		lo := h.Buckets[i]
		if math.IsInf(lo, 0) {
			lo = h.Buckets[i+1]
		}
		sum += float64(n) * lo
	}
	return sum
}

// host records what the host did while a run measured, so a host phase can
// be told from a code change. Neither figure is gated.
type host struct {
	statStart cpuStat
	// canaryBefore and canaryAfter are the canary timings, in ms, taken
	// before and after the measured phase.
	canaryBefore, canaryAfter []float64
	stealPct                  float64
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() (cpuStat, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already inside user, so only the first eight add up.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st, nil
}

// canaryRounds fixes the canary's work: a xorshift loop that touches no
// memory and calls nothing, so only the host can change its time.
const canaryRounds = 20_000_000

var canarySink uint64

func canary() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < canaryRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	canarySink = x
	return ms(time.Since(start))
}

func canaries(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = canary()
	}
	return out
}

// startHost times the canary and opens the steal window; call it just
// before the measured phase.
func startHost() (*host, error) {
	h := &host{canaryBefore: canaries(5)}
	st, err := readCPUStat()
	if err != nil {
		return nil, err
	}
	h.statStart = st
	return h, nil
}

// finish closes the steal window and times the canary again; call it just
// after the measured phase.
func (h *host) finish() error {
	st, err := readCPUStat()
	if err != nil {
		return err
	}
	if dt := st.total - h.statStart.total; dt > 0 {
		h.stealPct = 100 * float64(st.steal-h.statStart.steal) / float64(dt)
	}
	h.canaryAfter = canaries(5)
	return nil
}

func (h *host) canaryMs() float64 {
	return median(append(append([]float64(nil), h.canaryBefore...), h.canaryAfter...))
}

// minSetups is how many identical set-ups a run times; setup_s is their
// median, since one 50–100 ms set-up alone spreads 30–50% from run to run
// on a busy host.
const minSetups = 9

// hardStop, when set, is the moment after which no phase starts another
// op, epoch or cycle, so a run on a stalled host still ends in time.
var hardStop time.Time

// phase accumulates one measured phase: per-op latency, and the wall
// time, CPU time, runtime counters and host steal of the blocks it
// measured in.
type phase struct {
	lat                  []float64 // ms per op, in order
	blocks               []block
	wall, cpu            time.Duration
	allocBytes, gcCycles uint64
	gcPause              float64 // seconds
	attempted, failed    int
	setups               []float64 // seconds per set-up
	notes                []string  // the first failures, for the log
}

// block is one closed measuring window: ops lat[first:end].
type block struct {
	first, end int
	wall, cpu  time.Duration
	steal      float64 // share of the host's CPU time stolen, 0..1
}

// blockLen is how long a measuring block of query-aged and batch-synth
// lasts at least; a block of ingest-aged is one epoch, about 2 s.
const blockLen = time.Second

// window is one open measuring block of a phase.
type window struct {
	start time.Time
	cpu   time.Duration
	rt    runtimeSample
	stat  cpuStat
	first int
}

func (p *phase) open() (window, error) {
	st, err := readCPUStat()
	if err != nil {
		return window{}, err
	}
	cpu, err := cpuTime()
	return window{start: time.Now(), cpu: cpu, rt: readRuntime(), stat: st, first: len(p.lat)}, err
}

func (p *phase) close(w window) error {
	wall := time.Since(w.start)
	cpu, err := cpuTime()
	if err != nil {
		return err
	}
	rt := readRuntime()
	st, err := readCPUStat()
	if err != nil {
		return err
	}
	p.wall += wall
	p.cpu += cpu - w.cpu
	p.allocBytes += rt.allocBytes - w.rt.allocBytes
	p.gcCycles += rt.gcCycles - w.rt.gcCycles
	p.gcPause += rt.gcPause - w.rt.gcPause
	if len(p.lat) > w.first {
		b := block{first: w.first, end: len(p.lat), wall: wall, cpu: cpu - w.cpu}
		if total := st.total - w.stat.total; total > 0 {
			b.steal = float64(st.steal-w.stat.steal) / float64(total)
		}
		p.blocks = append(p.blocks, b)
	}
	return nil
}

// reopen closes w and opens the next block once w has lasted blockLen.
func (p *phase) reopen(w window) (window, error) {
	if time.Since(w.start) < blockLen {
		return w, nil
	}
	if err := p.close(w); err != nil {
		return w, err
	}
	return p.open()
}

// wallSince is the phase's measured wall time with w still open.
func (p *phase) wallSince(w window) time.Duration { return p.wall + time.Since(w.start) }

func (p *phase) pastHardStop() bool { return !hardStop.IsZero() && time.Now().After(hardStop) }

// fail counts a failed op when err is set.
func (p *phase) fail(err error, what string) {
	if err != nil {
		p.failed++
		p.note(fmt.Errorf("%s: %w", what, err))
	}
}

func (p *phase) note(err error) {
	if len(p.notes) < 5 {
		p.notes = append(p.notes, err.Error())
	}
}

// quiet picks the blocks the end-to-end timings come from: blocks in
// order of increasing host steal, until at least half of them and at
// least minOps ops are in. A steal burst then moves a run's timings only
// when it covers most of the run.
func (p *phase) quiet() []block {
	order := make([]int, len(p.blocks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return p.blocks[order[i]].steal < p.blocks[order[j]].steal })
	var kept []block
	ops := 0
	for _, i := range order {
		if 2*len(kept) >= len(p.blocks) && ops >= minOps {
			break
		}
		kept = append(kept, p.blocks[i])
		ops += p.blocks[i].end - p.blocks[i].first
	}
	return kept
}

// timings computes throughput, latency percentiles and CPU per op over
// the given blocks.
func (p *phase) timings(blocks []block) map[string]float64 {
	var lat []float64
	var wall, cpu time.Duration
	for _, b := range blocks {
		lat = append(lat, p.lat[b.first:b.end]...)
		wall += b.wall
		cpu += b.cpu
	}
	m := map[string]float64{
		"p50_ms": percentile(lat, 50),
		"p90_ms": percentile(lat, 90),
	}
	if secs := wall.Seconds(); secs > 0 {
		m["throughput_ops_s"] = float64(len(lat)) / secs
	}
	if n := float64(len(lat)); n > 0 {
		m["cpu_ms_per_op"] = ms(cpu) / n
	}
	return m
}

// endToEnd computes the six end-to-end metrics of a finished phase.
func (p *phase) endToEnd(peakRSS float64) map[string]float64 {
	m := p.timings(p.quiet())
	m["peak_rss_mb"] = peakRSS
	m["setup_s"] = median(p.setups)
	return m
}
