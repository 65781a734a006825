package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"corroborate/internal/serve"
)

const ingestPath = "/v1/tenants/" + tenant + "/ingest"

// worldConfig is one tenant wired as cmd/corrod wires it by default: one
// shard, queue depth 64, no decay, read-only after 3 failed saves, and a
// checkpoint on the ordinary filesystem.
func worldConfig(checkpoint string) serve.Config {
	return serve.Config{Tenants: []serve.WorldConfig{{
		Name:           tenant,
		Shards:         1,
		QueueDepth:     64,
		CheckpointPath: checkpoint,
		ReadOnlyAfter:  3,
	}}}
}

// placeCheckpoint gives a tenant a fresh directory holding only the aged
// checkpoint, and returns the checkpoint's path.
func placeCheckpoint(dir string, aged []byte) (string, error) {
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "checkpoint.json")
	if err := os.WriteFile(path, aged, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// liveServer is serve.New behind net/http on a loopback socket, with the
// one client that drives it.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// openServer restores the tenant from checkpoint and serves it on an
// ephemeral loopback port. The returned duration is the program's set-up:
// from serve.New until the listener answers /readyz.
func openServer(checkpoint string) (*liveServer, time.Duration, error) {
	start := time.Now()
	srv, _, err := serve.New(worldConfig(checkpoint))
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, errors.Join(err, srv.Drain())
	}
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 1}},
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	status, _, err := ls.do(http.MethodGet, "/readyz", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("readyz answered %d", status)
	}
	if err != nil {
		return nil, 0, errors.Join(err, ls.close())
	}
	return ls, time.Since(start), nil
}

// do sends one request and reads the whole response.
func (ls *liveServer) do(method, path string, body []byte) (int, []byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, ls.base+path, r)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, data, err
}

// close drains the tenant (final checkpoint) and stops the HTTP server,
// waiting until it has stopped serving.
func (ls *liveServer) close() error {
	derr := ls.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := ls.hs.Shutdown(ctx)
	if err := <-ls.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	ls.client.CloseIdleConnections()
	return errors.Join(derr, serr)
}

// runIngest is ingest-aged. Each epoch restores the aged tenant from its
// checkpoint and sends the epoch's batches one at a time; epochs repeat
// until the phase has measured for budget and at least minOps acks. Every
// epoch therefore does the same work on the same history, however many
// epochs the host's speed allows.
func runIngest(in *serveInputs, dir string, budget time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	for p.wall < budget || p.attempted < minOps || len(p.setups) < minSetups {
		if p.pastHardStop() {
			break
		}
		checkpoint, err := placeCheckpoint(filepath.Join(dir, "ingest"), in.aged)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		ls, setup, err := openServer(checkpoint)
		if err != nil {
			return nil, fmt.Errorf("opening aged tenant: %w", err)
		}
		p.setups = append(p.setups, setup.Seconds())
		acks := make([]response, len(in.bodies))
		w, err := p.open()
		if err != nil {
			return nil, errors.Join(err, ls.close())
		}
		for i, body := range in.bodies {
			id := tr.start("http.ingest", tr.newOp(), 0)
			t0 := time.Now()
			acks[i].status, acks[i].body, acks[i].err = ls.do(http.MethodPost, ingestPath, body)
			p.lat = append(p.lat, ms(time.Since(t0)))
			tr.end(id)
		}
		if err := p.close(w); err != nil {
			return nil, errors.Join(err, ls.close())
		}
		if err := ls.close(); err != nil {
			return nil, fmt.Errorf("draining tenant: %w", err)
		}
		onDisk, err := os.ReadFile(checkpoint)
		if err != nil {
			return nil, err
		}
		durable := checkCheckpoint(onDisk, in.wantCheckpoint)
		for i, a := range acks {
			p.attempted++
			err := in.checkIngest(a, i)
			if err == nil {
				// An ack promises the batch is on disk; the epoch's final
				// checkpoint is where that promise is checked.
				err = durable
			}
			p.fail(err, fmt.Sprintf("ingest batch %d", in.agedBatches+i))
		}
	}
	return p, nil
}

// runQuery is query-aged: the aged tenant, restored minSetups times,
// answers one client cycling the seeded query mix until the phase has
// measured for budget and at least minOps requests. Blocks hold whole
// cycles, so every kind keeps its share of the mix.
func runQuery(in *serveInputs, dir string, budget time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	checkpoint, err := placeCheckpoint(filepath.Join(dir, "query"), in.aged)
	if err != nil {
		return nil, err
	}
	var ls *liveServer
	for i := 0; i < minSetups; i++ {
		runtime.GC()
		s, setup, err := openServer(checkpoint)
		if err != nil {
			return nil, fmt.Errorf("opening aged tenant: %w", err)
		}
		p.setups = append(p.setups, setup.Seconds())
		if i == minSetups-1 {
			ls = s
		} else if err := s.close(); err != nil {
			return nil, err
		}
	}
	// first holds each distinct request's first answer; every repeat must
	// match it byte for byte, and it must match the reference.
	first := make(map[string][]byte)
	okOps := make(map[string]int)
	w, err := p.open()
	if err != nil {
		return nil, errors.Join(err, ls.close())
	}
	for p.wallSince(w) < budget || p.attempted < minOps {
		if p.pastHardStop() {
			break
		}
		if w, err = p.reopen(w); err != nil {
			return nil, errors.Join(err, ls.close())
		}
		for _, q := range in.cycle {
			id := tr.start("http.query", tr.newOp(), 0)
			t0 := time.Now()
			r := response{}
			r.status, r.body, r.err = ls.do(http.MethodGet, q.path, nil)
			p.lat = append(p.lat, ms(time.Since(t0)))
			tr.end(id)
			p.attempted++
			err := r.check(http.StatusOK)
			if prev, seen := first[q.path]; err == nil && !seen {
				first[q.path] = r.body
			} else if err == nil {
				err = checkRepeat(prev, r.body)
			}
			if err == nil {
				okOps[q.path]++
			}
			p.fail(err, q.path)
		}
	}
	if err := p.close(w); err != nil {
		return nil, errors.Join(err, ls.close())
	}
	if err := ls.close(); err != nil {
		return nil, fmt.Errorf("draining tenant: %w", err)
	}
	checked := make(map[string]bool)
	for _, q := range in.cycle {
		body, ok := first[q.path]
		if !ok || checked[q.path] {
			continue
		}
		checked[q.path] = true
		if err := checkQuery(body, q.want); err != nil {
			// Every answer to this request repeated the wrong one.
			p.failed += okOps[q.path]
			p.note(fmt.Errorf("%s: %w", q.path, err))
		}
	}
	return p, nil
}

// checkIngest verifies the answer to the i-th batch of an epoch: a 200
// whose ack matches the reference stream's.
func (in *serveInputs) checkIngest(r response, i int) error {
	if err := r.check(http.StatusOK); err != nil {
		return err
	}
	return checkAck(r.body, in.agedBatches+i, in.wantFacts[i])
}

// response is one HTTP exchange as the client saw it.
type response struct {
	status int
	body   []byte
	err    error
}

func (r response) check(want int) error {
	if r.err != nil {
		return r.err
	}
	if r.status != want {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	return nil
}
