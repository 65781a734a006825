package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"

	"corroborate/internal/core"
	"corroborate/internal/serve"
	"corroborate/internal/truth"
)

// Layer replays. Each replays the run's seeded inputs through one layer's
// public functions and records a span around every call, nested the way
// the served request nests them:
//
//	http.ingest                      POST on a loopback tenant
//	└ serve.ingest.handler           the same batch, Handler().ServeHTTP on a twin tenant
//	  ├ serve.ingest.decode          JSON decode into serve.IngestRequest
//	  ├ core.stream.add_batch        ShardedStream.AddBatchContext on a twin stream
//	  ├ core.sink.save               CheckpointSink.Save of the twin stream
//	  │ └ core.checkpoint.encode       Stream.Checkpoint into memory
//	  └ core.snapshot.publish        Stream.Snapshot
//
//	http.query                       GET on a loopback tenant
//	└ serve.query.<kind>.handler     the same request, Handler().ServeHTTP
//	  └ core.snapshot.scan           one full StreamSnapshot.EachFact walk
//
//	serve.open                       serve.New on the aged checkpoint
//	core.sink.restore                CheckpointSink.Restore of it
//
//	core.incestimate.run             IncEstimate.RunWith
//	└ engine.round                   one per engine.Options.Observer call
//
//	truth.read_csv                   truth.LoadCSV of the world
//
// A twin starts from the same checkpoint and receives the same inputs, so
// its call does the work the parent did; a parent's self time is what the
// replayed children do not account for.

// layerReps is how many times the restart and batch-engine layers are
// replayed, and how many times each query of the mix is.
const layerReps = 5

// replayIngest replays one epoch of batches through a loopback tenant, a
// twin tenant's handler and a twin stream with its own sink, and checks
// every ack and all three final checkpoints against the reference.
func replayIngest(in *serveInputs, dir string, tr *tracer) (attempted, failed int, err error) {
	paths := make([]string, 3)
	for i, name := range []string{"loopback", "handler", "stream"} {
		if paths[i], err = placeCheckpoint(filepath.Join(dir, "replay-"+name), in.aged); err != nil {
			return 0, 0, err
		}
	}
	ls, _, err := openServer(paths[0])
	if err != nil {
		return 0, 0, err
	}
	twin, _, err := serve.New(worldConfig(paths[1]))
	if err != nil {
		return 0, 0, errors.Join(err, ls.close())
	}
	stream, err := core.RestoreShardedStream(bytes.NewReader(in.aged), 1)
	if err != nil {
		return 0, 0, errors.Join(err, ls.close(), twin.Drain())
	}
	sink := core.NewCheckpointSink(paths[2])
	ctx := context.Background()
	var enc bytes.Buffer
	for i, body := range in.bodies {
		if ctx.Err() != nil {
			break
		}
		// The loopback tenant, the twin tenant, the twin stream and the
		// lone encode each start on a collected heap, so none pays for a
		// collection another's garbage triggered; runtime.* reports what
		// collection costs.
		runtime.GC()
		op := tr.newOp()
		attempted++
		root := tr.start("http.ingest", op, 0)
		r := response{}
		r.status, r.body, r.err = ls.do(http.MethodPost, ingestPath, body)
		tr.end(root)
		opErr := in.checkIngest(r, i)

		runtime.GC()
		h := tr.start("serve.ingest.handler", op, root)
		rec := httptest.NewRecorder()
		twin.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ingestPath, bytes.NewReader(body)))
		tr.end(h)
		opErr = errors.Join(opErr, in.checkIngest(response{status: rec.Code, body: rec.Body.Bytes()}, i))

		runtime.GC()
		id := tr.start("serve.ingest.decode", op, h)
		var req serve.IngestRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		tr.end(id)
		if err != nil {
			return attempted, failed, errors.Join(fmt.Errorf("decoding batch %d: %w", i, err), ls.close(), twin.Drain())
		}
		votes := make([]core.BatchVote, len(req.Votes))
		for j, v := range req.Votes {
			votes[j] = core.BatchVote{Fact: v.Fact, Source: v.Source, Vote: v.Vote}
		}

		id = tr.start("core.stream.add_batch", op, h)
		facts, err := stream.AddBatchContext(ctx, votes)
		tr.end(id)
		if err == nil {
			var got []byte
			if got, err = json.Marshal(factsJSON(facts)); err == nil && !bytes.Equal(got, in.wantFacts[i]) {
				err = fmt.Errorf("twin stream decided differently from the reference")
			}
		}
		opErr = errors.Join(opErr, err)

		save := tr.start("core.sink.save", op, h)
		err = sink.Save(stream)
		tr.end(save)
		opErr = errors.Join(opErr, err)
		// Save encodes and then makes the bytes durable; encoding alone,
		// into memory, is replayed as its child, so the save's self time
		// is the temp write, fsync, rename and directory fsync.
		enc.Reset()
		runtime.GC()
		a0 := readRuntime()
		id = tr.start("core.checkpoint.encode", op, save)
		err = stream.Checkpoint(&enc)
		tr.end(id)
		tr.setAlloc(id, a0, readRuntime())
		tr.setCount(id, int64(enc.Len()))
		opErr = errors.Join(opErr, err)

		id = tr.start("core.snapshot.publish", op, h)
		snap := stream.Snapshot()
		tr.end(id)
		tr.setCount(id, int64(len(snap.Trust)))
		if opErr != nil {
			failed++
		}
	}
	err = errors.Join(ls.close(), twin.Drain())
	for _, path := range paths {
		got, rerr := os.ReadFile(path)
		if rerr == nil {
			rerr = checkCheckpoint(got, in.wantCheckpoint)
		}
		err = errors.Join(err, rerr)
	}
	return attempted, failed, err
}

// replayQuery sends every request of the mix layerReps times, over the
// loopback and through the handler, and walks the snapshot once per
// fact query.
func replayQuery(in *serveInputs, dir string, tr *tracer) (attempted, failed int, err error) {
	checkpoint, err := placeCheckpoint(filepath.Join(dir, "replay-query"), in.aged)
	if err != nil {
		return 0, 0, err
	}
	ls, _, err := openServer(checkpoint)
	if err != nil {
		return 0, 0, err
	}
	handler := ls.srv.Handler()
	snap := ls.srv.World(tenant).Snapshot()
	for rep := 0; rep < layerReps; rep++ {
		for _, q := range in.cycle {
			op := tr.newOp()
			attempted++
			root := tr.start("http.query", op, 0)
			r := response{}
			r.status, r.body, r.err = ls.do(http.MethodGet, q.path, nil)
			tr.end(root)
			opErr := r.check(http.StatusOK)
			if opErr == nil {
				opErr = checkQuery(r.body, q.want)
			}

			h := tr.start("serve.query."+q.kind+".handler", op, root)
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.path, nil))
			tr.end(h)
			tr.setCount(h, int64(rec.Body.Len()))
			if opErr == nil && (rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), r.body)) {
				opErr = fmt.Errorf("%s: handler answer differs from the loopback answer", q.path)
			}

			if q.kind != "trust" {
				id := tr.start("core.snapshot.scan", op, h)
				n := 0
				snap.EachFact(func(core.StreamFact) bool { n++; return true })
				tr.end(id)
				tr.setCount(id, int64(n))
			}
			if opErr != nil {
				failed++
			}
		}
	}
	return attempted, failed, ls.close()
}

// replayRestart opens the aged tenant with serve.New, then restores its
// checkpoint through the sink alone, layerReps times, each call on a
// collected heap.
func replayRestart(in *serveInputs, dir string, tr *tracer) (attempted, failed int, err error) {
	checkpoint, err := placeCheckpoint(filepath.Join(dir, "replay-open"), in.aged)
	if err != nil {
		return 0, 0, err
	}
	for rep := 0; rep < layerReps; rep++ {
		attempted++
		runtime.GC()
		id := tr.start("serve.open", tr.newOp(), 0)
		srv, _, err := serve.New(worldConfig(checkpoint))
		tr.end(id)
		if err != nil {
			return attempted, failed, err
		}
		snap := srv.World(tenant).Snapshot()
		ok := snap.Batches == in.agedBatches && len(snap.Facts) == in.agedFacts
		if err := srv.Drain(); err != nil {
			return attempted, failed, err
		}

		runtime.GC()
		a0 := readRuntime()
		id = tr.start("core.sink.restore", tr.newOp(), 0)
		st, report, err := core.NewCheckpointSink(checkpoint).Restore(1)
		tr.end(id)
		tr.setAlloc(id, a0, readRuntime())
		if err != nil {
			return attempted, failed, err
		}
		if !ok || !report.Resumed || st.Batches() != in.agedBatches {
			failed++
		}
	}
	return attempted, failed, nil
}

// replayBatch loads the world and runs IncEstHeu layerReps times each;
// every run must repeat the first.
func replayBatch(csvPath string, tr *tracer) (attempted, failed int, err error) {
	var d *truth.Dataset
	for rep := 0; rep < layerReps; rep++ {
		d = nil
		runtime.GC()
		op := tr.newOp()
		a0 := readRuntime()
		id := tr.start("truth.read_csv", op, 0)
		loaded, err := truth.LoadCSV(csvPath)
		tr.end(id)
		tr.setAlloc(id, a0, readRuntime())
		if err != nil {
			return 0, 0, err
		}
		d = loaded
	}
	ctx := context.Background()
	var first *truth.Result
	for rep := 0; rep < layerReps && ctx.Err() == nil; rep++ {
		attempted++
		r, err := incEstHeu(ctx, d, tr)
		switch {
		case err != nil:
		case first == nil:
			first = r
		default:
			err = sameResult(first, r)
		}
		if err != nil {
			failed++
		}
	}
	return attempted, failed, nil
}

// layerMetrics derives the per-layer metrics from the replay spans.
func layerMetrics(st spanStats) map[string]float64 {
	p50 := func(name string) float64 { return median(st.dur[name]) }
	m := map[string]float64{
		"serve.ingest.handler_ms":    p50("serve.ingest.handler"),
		"serve.ingest.decode_ms":     p50("serve.ingest.decode"),
		"http.ingest_ms":             p50("http.ingest") - p50("serve.ingest.handler"),
		"serve.open_ms":              p50("serve.open"),
		"core.stream.add_batch_ms":   p50("core.stream.add_batch"),
		"core.snapshot.publish_ms":   p50("core.snapshot.publish"),
		"core.snapshot.sources":      median(st.count["core.snapshot.publish"]),
		"core.snapshot.scan_ms":      p50("core.snapshot.scan"),
		"core.checkpoint.encode_ms":  p50("core.checkpoint.encode"),
		"core.checkpoint.bytes":      median(st.count["core.checkpoint.encode"]),
		"core.checkpoint.alloc_mb":   median(st.alloc["core.checkpoint.encode"]),
		"core.sink.save_ms":          p50("core.sink.save"),
		"core.sink.durable_ms":       p50("core.sink.save") - p50("core.checkpoint.encode"),
		"core.sink.restore_ms":       p50("core.sink.restore"),
		"core.sink.restore_alloc_mb": median(st.alloc["core.sink.restore"]),
		"core.incestimate.run_ms":    p50("core.incestimate.run"),
		"core.incestimate.alloc_mb":  median(st.alloc["core.incestimate.run"]),
		"engine.rounds":              median(st.count["core.incestimate.run"]),
		"engine.round_ms":            p50("engine.round"),
		"truth.read_csv_ms":          p50("truth.read_csv"),
		"truth.read_csv_alloc_mb":    median(st.alloc["truth.read_csv"]),
	}
	var handlers []float64
	for _, kind := range queryKinds {
		name := "serve.query." + kind + ".handler"
		m[name+"_ms"] = p50(name)
		m["serve.query."+kind+".response_bytes"] = median(st.count[name])
		handlers = append(handlers, st.dur[name]...)
	}
	m["http.query_ms"] = p50("http.query") - median(handlers)
	return m
}
