// Command loadgen replays seeded synthetic vote streams against a running
// corrod daemon at a configured QPS and reports ingest and query latency
// percentiles as JSON (BENCH_4.json keeps one run as history; speed
// claims come from python3 perfbench/run.py).
//
// The vote stream comes from internal/synth's scenario generator — the
// same seeded worlds the robustness suite uses — so a load run is
// reproducible vote-for-vote, and adversarial regimes (spammer blocs) can
// be replayed against a live daemon with -spammers.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:8080 -tenant default -qps 50 -requests 100
//
// Ingest requests that are rejected with 429 honor the Retry-After header
// and retry (counted separately), so the report distinguishes admission
// pushback from hard failures. Query load runs concurrently with ingest.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"corroborate/internal/synth"
	"corroborate/internal/truth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// report is the JSON output.
type report struct {
	GeneratedBy string       `json:"generated_by"`
	Addr        string       `json:"addr"`
	Tenant      string       `json:"tenant"`
	Config      runConfig    `json:"config"`
	Ingest      ingestReport `json:"ingest"`
	Query       queryReport  `json:"query"`
}

type runConfig struct {
	QPS           float64 `json:"qps"`
	QueryQPS      float64 `json:"query_qps"`
	Requests      int     `json:"requests"`
	FactsPerBatch int     `json:"facts_per_batch"`
	Sources       int     `json:"sources"`
	Spammers      int     `json:"spammers"`
	Concurrency   int     `json:"concurrency"`
	Seed          int64   `json:"seed"`
}

type latencyReport struct {
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

type ingestReport struct {
	Sent            int           `json:"sent"`
	Acked           int           `json:"acked"`
	Rejected429     int           `json:"rejected_429"`
	Dropped         int           `json:"dropped"`
	Errors          int           `json:"errors"`
	DurationSeconds float64       `json:"duration_seconds"`
	AchievedQPS     float64       `json:"achieved_qps"`
	Latency         latencyReport `json:"latency"`
}

type queryReport struct {
	Sent    int           `json:"sent"`
	Errors  int           `json:"errors"`
	Latency latencyReport `json:"latency"`
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "corrod address (host:port or http://host:port)")
	tenant := flag.String("tenant", "default", "tenant to load")
	qps := flag.Float64("qps", 50, "target ingest request rate")
	queryQPS := flag.Float64("query-qps", 25, "concurrent query request rate (0 disables)")
	requests := flag.Int("requests", 100, "number of batches to send (scenario time points)")
	facts := flag.Int("facts", 10, "fresh facts per batch")
	sources := flag.Int("sources", 8, "honest sources in the scenario")
	spammers := flag.Int("spammers", 0, "add a coordinated spammer bloc of this size (adversarial load)")
	concurrency := flag.Int("concurrency", 4, "ingest worker connections")
	seed := flag.Int64("seed", 1, "scenario seed (same seed, same votes)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request client timeout")
	wait := flag.Duration("wait", 0, "poll /healthz this long for the daemon to come up before loading")
	out := flag.String("json", "-", "report output path (- for stdout)")
	flag.Parse()
	if *qps <= 0 {
		return fmt.Errorf("-qps %v must be positive", *qps)
	}
	if *queryQPS < 0 {
		return fmt.Errorf("-query-qps %v must be non-negative (0 disables)", *queryQPS)
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{Timeout: *timeout}

	if *wait > 0 {
		if err := waitHealthy(client, base, *wait); err != nil {
			return err
		}
	}

	cfg := synth.ScenarioConfig{
		Batches:       *requests,
		FactsPerBatch: *facts,
		HonestSources: *sources,
		Seed:          *seed,
	}
	if *spammers > 0 {
		cfg.Blocs = []synth.BlocConfig{{Sources: *spammers, Strength: 0.5, Camouflage: 0.2}}
	}
	world, err := synth.GenerateScenario(cfg)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(world.Batches))
	for i, b := range world.Batches {
		if bodies[i], err = encodeBatch(b); err != nil {
			return err
		}
	}

	ingestURL := base + "/v1/tenants/" + *tenant + "/ingest"
	queryURL := base + "/v1/tenants/" + *tenant + "/query?limit=50"
	trustURL := base + "/v1/tenants/" + *tenant + "/trust"

	var ing ingestLoad
	ticks := make(chan struct{})
	stopTicks := make(chan struct{})
	go pace(*qps, ticks, stopTicks)

	work := make(chan []byte)
	var wg sync.WaitGroup
	workers := *concurrency
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for body := range work {
				<-ticks
				ing.send(client, ingestURL, body)
			}
		}()
	}

	// Query load rides along until ingest finishes.
	var qry queryLoad
	queryDone := make(chan struct{})
	stopQueries := make(chan struct{})
	if *queryQPS > 0 {
		go func() {
			defer close(queryDone)
			qry.loop(client, []string{queryURL, trustURL}, *queryQPS, stopQueries)
		}()
	} else {
		close(queryDone)
	}

	for _, body := range bodies {
		work <- body
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)
	close(stopTicks)
	close(stopQueries)
	<-queryDone

	rep := report{
		GeneratedBy: "cmd/loadgen",
		Addr:        base,
		Tenant:      *tenant,
		Config: runConfig{
			QPS: *qps, QueryQPS: *queryQPS, Requests: *requests, FactsPerBatch: *facts,
			Sources: *sources, Spammers: *spammers, Concurrency: workers, Seed: *seed,
		},
		Ingest: ing.report(elapsed),
		Query:  qry.report(),
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// waitHealthy polls /healthz until the daemon answers 200 or the budget
// runs out.
func waitHealthy(client *http.Client, base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			drainBody(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy after %v", base, budget)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// encodeBatch renders one scenario batch as an ingest request body.
func encodeBatch(b synth.ScenarioBatch) ([]byte, error) {
	type voteJSON struct {
		Fact   string     `json:"fact"`
		Source string     `json:"source"`
		Vote   truth.Vote `json:"vote"`
	}
	votes := make([]voteJSON, len(b.Votes))
	for i, v := range b.Votes {
		votes[i] = voteJSON{Fact: v.Fact, Source: v.Source, Vote: v.Vote}
	}
	return json.Marshal(struct {
		Votes []voteJSON `json:"votes"`
	}{votes})
}

// pace emits one tick per 1/qps seconds until stopped.
func pace(qps float64, ticks chan<- struct{}, stop <-chan struct{}) {
	if qps <= 0 {
		qps = 1 // run() validates the flag; this guards direct callers
	}
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			select {
			case ticks <- struct{}{}:
			case <-stop:
				return
			}
		case <-stop:
			return
		}
	}
}

// ingestLoad aggregates ingest outcomes across workers.
type ingestLoad struct {
	mu        sync.Mutex
	latencies []time.Duration
	sent      int
	acked     int
	rejected  int
	dropped   int
	errors    int
}

// send posts one batch, honoring 429 Retry-After with bounded retries.
func (l *ingestLoad) send(client *http.Client, url string, body []byte) {
	const maxAttempts = 10
	for attempt := 0; attempt < maxAttempts; attempt++ {
		start := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		lat := time.Since(start)
		l.mu.Lock()
		l.sent++
		l.mu.Unlock()
		if err != nil {
			l.mu.Lock()
			l.errors++
			l.mu.Unlock()
			return
		}
		status := resp.StatusCode
		retryAfter := resp.Header.Get("Retry-After")
		drainBody(resp)
		switch {
		case status == http.StatusOK:
			l.mu.Lock()
			l.acked++
			l.latencies = append(l.latencies, lat)
			l.mu.Unlock()
			return
		case status == http.StatusTooManyRequests:
			l.mu.Lock()
			l.rejected++
			l.mu.Unlock()
			sleepRetryAfter(retryAfter)
		default:
			l.mu.Lock()
			l.errors++
			l.mu.Unlock()
			return
		}
	}
	l.mu.Lock()
	l.dropped++
	l.mu.Unlock()
}

func (l *ingestLoad) report(elapsed time.Duration) ingestReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	achieved := 0.0
	if elapsed > 0 {
		achieved = float64(l.acked) / elapsed.Seconds()
	}
	return ingestReport{
		Sent: l.sent, Acked: l.acked, Rejected429: l.rejected,
		Dropped: l.dropped, Errors: l.errors,
		DurationSeconds: elapsed.Seconds(), AchievedQPS: achieved,
		Latency: percentiles(l.latencies),
	}
}

func sleepRetryAfter(header string) {
	secs, err := strconv.Atoi(strings.TrimSpace(header))
	if err != nil || secs < 0 {
		secs = 1
	}
	if secs > 10 {
		secs = 10
	}
	time.Sleep(time.Duration(secs) * time.Second)
}

// queryLoad issues read requests at its own rate, alternating targets.
type queryLoad struct {
	mu        sync.Mutex
	latencies []time.Duration
	sent      int
	errors    int
}

func (l *queryLoad) loop(client *http.Client, urls []string, qps float64, stop <-chan struct{}) {
	if qps <= 0 {
		qps = 1 // run() only starts the loop for positive rates
	}
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		url := urls[i%len(urls)]
		start := time.Now()
		resp, err := client.Get(url)
		lat := time.Since(start)
		l.mu.Lock()
		l.sent++
		if err != nil || resp.StatusCode != http.StatusOK {
			l.errors++
		} else {
			l.latencies = append(l.latencies, lat)
		}
		l.mu.Unlock()
		if resp != nil {
			drainBody(resp)
		}
	}
}

func (l *queryLoad) report() queryReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	return queryReport{Sent: l.sent, Errors: l.errors, Latency: percentiles(l.latencies)}
}

// percentiles computes p50/p90/p99/max in milliseconds from raw latencies.
func percentiles(lats []time.Duration) latencyReport {
	if len(lats) == 0 {
		return latencyReport{}
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		idx := int(math.Ceil(q*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return float64(sorted[idx]) / float64(time.Millisecond)
	}
	return latencyReport{
		P50Ms: at(0.50),
		P90Ms: at(0.90),
		P99Ms: at(0.99),
		MaxMs: float64(sorted[len(sorted)-1]) / float64(time.Millisecond),
	}
}

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
