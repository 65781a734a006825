// Package serve is the corroboration-as-a-service layer: it hosts named
// tenant worlds — each a sharded corroboration stream with a crash-safe
// checkpoint sink — behind an HTTP/JSON API with explicit admission
// control, backpressure, graceful drain, and crash-safe restart.
//
// The load-shedding philosophy comes from the truth-discovery serving
// literature rather than from batch experiments: under overload the
// service must stay deterministic and honest. Concretely:
//
//   - Admission control: each tenant's ingest queue is bounded; a full
//     queue rejects with 429 + Retry-After instead of buffering without
//     limit. The queue depth plus the one batch being applied is the
//     tenant's in-flight cap.
//   - Backpressure: one consumer per tenant applies batches at the
//     stream's batch boundary; producers feel the stream's real speed
//     through the queue, not through unbounded memory growth.
//   - Honest acknowledgment: 200 means the batch is absorbed AND durably
//     committed — its checkpoint-log record fsynced, or a full checkpoint
//     holding it written. A request that times out waiting is answered 504
//     "not acknowledged" — the batch may still apply, but the service
//     never acknowledges what a crash could lose.
//   - Graceful drain: on SIGTERM the server stops admitting (readyz and
//     ingest turn 503), flushes every queued batch through the normal
//     acknowledged path, writes a final checkpoint per tenant, and only
//     then exits — so a drained data directory restarts byte-identically.
//   - Degradation ladder: a failed log append retries as a full
//     checkpoint, and transient checkpoint failures with bounded backoff,
//     inside the sink; persistent failure flips the tenant
//     read-only (queries keep serving from memory) instead of either
//     crashing the daemon or acknowledging undurable writes.
//   - Crash-safe restart: each tenant resumes from its checkpoint plus
//     its log; a corrupt pair is quarantined to <path>.corrupt and
//     <path>.log.corrupt and the tenant starts fresh — restart is never
//     blocked.
//
// Queries never contend with ingest: every acknowledged batch publishes an
// immutable core.StreamSnapshot, and /query, /trust, and /metrics read the
// latest snapshot without touching the stream lock or the queue.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corroborate/internal/core"
	"corroborate/internal/truth"
)

// maxIngestBody bounds one ingest request's body; a batch bigger than this
// should be split by the producer.
const maxIngestBody = 32 << 20

// Config configures a Server.
type Config struct {
	// Tenants are the worlds to host; names must be non-empty and unique.
	Tenants []WorldConfig
	// RequestTimeout bounds how long one ingest request may wait for
	// acknowledgment (queue wait + apply + checkpoint); 0 means 15s.
	RequestTimeout time.Duration
	// Clock supplies time for metrics; nil means time.Now.
	Clock func() time.Time
	// NewTenant, when non-nil, enables the dynamic lifecycle API
	// (PUT/DELETE /v1/tenants/{t}): it returns the WorldConfig template for
	// a tenant created at runtime — checkpoint path, decay, degradation
	// policy — which the create request may override (shards, queue depth).
	// Nil keeps the topology static: lifecycle requests answer 403.
	NewTenant func(name string) (WorldConfig, error)
}

// Server hosts tenant worlds behind the HTTP/JSON API. Create with New,
// expose with Handler, shut down with Drain.
type Server struct {
	mu             sync.RWMutex // guards worlds and names (lifecycle API mutates both)
	worlds         map[string]*World
	names          []string // sorted; fixes /metrics rendering order
	mux            *http.ServeMux
	requestTimeout time.Duration
	clock          func() time.Time
	newTenant      func(name string) (WorldConfig, error)
	draining       atomic.Bool
}

// New opens every configured tenant world (resuming from checkpoints where
// they exist) and returns the server plus each world's RestoreReport keyed
// by tenant name. Any world failing to open fails the whole server: a
// daemon that silently dropped a tenant would serve 404s for real data.
func New(cfg Config) (*Server, map[string]core.RestoreReport, error) {
	if len(cfg.Tenants) == 0 && cfg.NewTenant == nil {
		// An empty topology is only useful when tenants can be created at
		// runtime through the lifecycle API.
		return nil, nil, fmt.Errorf("serve: no tenants configured")
	}
	timeout := cfg.RequestTimeout
	if timeout == 0 {
		timeout = 15 * time.Second
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	s := &Server{
		worlds:         make(map[string]*World, len(cfg.Tenants)),
		requestTimeout: timeout,
		clock:          clock,
		newTenant:      cfg.NewTenant,
	}
	reports := make(map[string]core.RestoreReport, len(cfg.Tenants))
	for _, tc := range cfg.Tenants {
		if _, dup := s.worlds[tc.Name]; dup {
			s.closeWorlds()
			return nil, nil, fmt.Errorf("serve: tenant %q configured twice", tc.Name)
		}
		if tc.Clock == nil {
			tc.Clock = clock
		}
		w, report, err := OpenWorld(tc)
		if err != nil {
			s.closeWorlds()
			return nil, nil, err
		}
		s.worlds[tc.Name] = w
		s.names = append(s.names, tc.Name)
		reports[tc.Name] = report
	}
	sort.Strings(s.names)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/trust", s.handleTrust)
	s.mux.HandleFunc("PUT /v1/tenants/{tenant}", s.handleTenantCreate)
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.handleTenantDelete)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s, reports, nil
}

// closeWorlds drains the worlds opened so far during a failed New.
func (s *Server) closeWorlds() {
	for _, w := range s.worlds {
		// Freshly opened worlds have empty queues; Drain just stops the
		// consumer. Shutdown-path errors have nowhere to go mid-New.
		_ = w.Drain()
	}
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// World returns the named tenant world, nil if unknown.
func (s *Server) World(name string) *World {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.worlds[name]
}

// TenantNames returns the hosted tenant names in sorted order.
func (s *Server) TenantNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.names...)
}

// Drain gracefully shuts the service down: admission closes on every
// tenant first (no tenant keeps admitting while another flushes), then
// each tenant flushes its queued batches through the normal acknowledged
// path and writes a final checkpoint. Idempotent; returns every tenant's
// drain error joined.
func (s *Server) Drain() error {
	s.draining.Store(true)
	// The flag is set before the snapshot, so any lifecycle request still
	// in flight either finished before this snapshot or answers 503; the
	// world set is stable from here on.
	s.mu.RLock()
	worlds := make([]*World, 0, len(s.names))
	for _, name := range s.names {
		worlds = append(worlds, s.worlds[name])
	}
	s.mu.RUnlock()
	for _, w := range worlds {
		w.StopAdmitting()
	}
	var errs []error
	for _, w := range worlds {
		if err := w.Drain(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// --- wire types ---

// VoteJSON is one vote of an ingest request. Vote uses the paper's
// notation: "T" affirms, "F" denies.
type VoteJSON struct {
	Fact   string     `json:"fact"`
	Source string     `json:"source"`
	Vote   truth.Vote `json:"vote"`
}

// IngestRequest is the POST /v1/tenants/{t}/ingest body: one batch.
type IngestRequest struct {
	Votes []VoteJSON `json:"votes"`
}

// FactJSON is one corroborated fact in API responses.
type FactJSON struct {
	Fact        string      `json:"fact"`
	Batch       int         `json:"batch"`
	Probability float64     `json:"probability"`
	Prediction  truth.Label `json:"prediction"`
}

// IngestResponse acknowledges one durably applied batch.
type IngestResponse struct {
	Tenant string     `json:"tenant"`
	Batch  int        `json:"batch"`
	Facts  []FactJSON `json:"facts"`
}

// QueryResponse is the decided-fact log view.
type QueryResponse struct {
	Tenant  string     `json:"tenant"`
	Batches int        `json:"batches"`
	Total   int        `json:"total"`
	Facts   []FactJSON `json:"facts"`
}

// SourceTrustJSON is one source's trust.
type SourceTrustJSON struct {
	Source string  `json:"source"`
	Trust  float64 `json:"trust"`
}

// TrustResponse is the per-source trust view, sources sorted by name.
type TrustResponse struct {
	Tenant  string            `json:"tenant"`
	Batches int               `json:"batches"`
	Sources []SourceTrustJSON `json:"sources"`
}

// TenantStatus summarizes one tenant for GET /v1/tenants.
type TenantStatus struct {
	Name     string `json:"name"`
	Batches  int    `json:"batches"`
	Facts    int    `json:"facts"`
	Sources  int    `json:"sources"`
	ReadOnly bool   `json:"read_only"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// The response writer's error has nowhere to go; the client sees the
	// truncated body.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// tenant resolves the {tenant} path segment, answering 404 itself when the
// world does not exist.
func (s *Server) tenant(w http.ResponseWriter, r *http.Request) *World {
	name := r.PathValue("tenant")
	world := s.World(name)
	if world == nil {
		writeError(w, http.StatusNotFound, "unknown tenant %q", name)
	}
	return world
}

// --- handlers ---

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	world := s.tenant(w, r)
	if world == nil {
		return
	}
	if s.draining.Load() {
		world.m.rejectedDraining.Add(1)
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
		return
	}
	var req IngestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing ingest body: %v", err)
		return
	}
	votes := make([]core.BatchVote, len(req.Votes))
	for i, v := range req.Votes {
		votes[i] = core.BatchVote{Fact: v.Fact, Source: v.Source, Vote: v.Vote}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
	defer cancel()
	res, err := world.Ingest(ctx, votes)
	switch {
	case err == nil:
		resp := IngestResponse{Tenant: world.Name(), Batch: res.Batch, Facts: make([]FactJSON, len(res.Facts))}
		for i, f := range res.Facts {
			resp.Facts[i] = FactJSON{Fact: f.Name, Batch: f.Batch, Probability: f.Probability, Prediction: f.Prediction}
		}
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, ErrQueueFull):
		// The admission bound is the backpressure signal: tell the client
		// when to come back instead of letting it hammer the queue.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrReadOnly):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrNotAcknowledged):
		writeError(w, http.StatusGatewayTimeout, "%v", err)
	default:
		if strings.Contains(err.Error(), "not durable") {
			// Applied in memory, checkpoint failed: honest non-ack.
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		// Atomic rejection by the stream: the batch itself is invalid.
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	world := s.tenant(w, r)
	if world == nil {
		return
	}
	p, err := parseQueryParams(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	snap := world.Snapshot()
	total, page := evalQuery(snap, p)
	resp := QueryResponse{Tenant: world.Name(), Batches: snap.Batches, Total: total}
	if p.top > 0 || p.offset < total {
		resp.Facts = make([]FactJSON, len(page))
		for i, f := range page {
			resp.Facts[i] = FactJSON{Fact: f.Name, Batch: f.Batch, Probability: f.Probability, Prediction: f.Prediction}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTrust(w http.ResponseWriter, r *http.Request) {
	world := s.tenant(w, r)
	if world == nil {
		return
	}
	snap := world.Snapshot()
	names := make([]string, 0, len(snap.Trust))
	for name := range snap.Trust {
		names = append(names, name)
	}
	sort.Strings(names)
	resp := TrustResponse{Tenant: world.Name(), Batches: snap.Batches, Sources: make([]SourceTrustJSON, len(names))}
	for i, name := range names {
		resp.Sources[i] = SourceTrustJSON{Source: name, Trust: snap.Trust[name]}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	worlds := make([]*World, 0, len(s.names))
	for _, name := range s.names {
		worlds = append(worlds, s.worlds[name])
	}
	s.mu.RUnlock()
	statuses := make([]TenantStatus, len(worlds))
	for i, world := range worlds {
		snap := world.Snapshot()
		statuses[i] = TenantStatus{
			Name:     world.Name(),
			Batches:  snap.Batches,
			Facts:    len(snap.Facts),
			Sources:  len(snap.Trust),
			ReadOnly: world.ReadOnly(),
		}
	}
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	now := s.clock()
	var d int
	if s.draining.Load() {
		d = 1
	}
	s.mu.RLock()
	worlds := make([]*World, 0, len(s.names))
	for _, name := range s.names {
		worlds = append(worlds, s.worlds[name])
	}
	s.mu.RUnlock()
	fmt.Fprintf(w, "corrod_up 1\n")
	fmt.Fprintf(w, "corrod_draining %d\n", d)
	fmt.Fprintf(w, "corrod_tenants %d\n", len(worlds))
	for _, world := range worlds {
		world.writeMetrics(w, now)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Liveness: the process is up and serving; draining is still alive.
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}
