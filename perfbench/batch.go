package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"corroborate/internal/core"
	"corroborate/internal/engine"
	"corroborate/internal/metrics"
	"corroborate/internal/truth"
)

// runBatch is batch-synth: the world is loaded minSetups times with
// truth.LoadCSV, then one caller runs IncEstHeu to completion over and
// over until the phase has measured for budget and at least minOps runs.
// Every run must repeat the first run's result exactly.
func runBatch(csvPath string, budget time.Duration, tr *tracer) (*phase, float64, error) {
	p := &phase{}
	var d *truth.Dataset
	for i := 0; i < minSetups; i++ {
		d = nil
		runtime.GC()
		start := time.Now()
		loaded, err := truth.LoadCSV(csvPath)
		if err != nil {
			return nil, 0, err
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		d = loaded
	}
	ctx := context.Background()
	var first *truth.Result
	w, err := p.open()
	if err != nil {
		return nil, 0, err
	}
	for p.wallSince(w) < budget || p.attempted < minOps {
		if p.pastHardStop() || ctx.Err() != nil {
			break
		}
		if w, err = p.reopen(w); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		r, err := incEstHeu(ctx, d, tr)
		p.lat = append(p.lat, ms(time.Since(t0)))
		p.attempted++
		switch {
		case err != nil:
		case first == nil:
			err = r.Check(d)
			first = r
		default:
			err = sameResult(first, r)
		}
		p.fail(err, fmt.Sprintf("IncEstHeu run %d", p.attempted))
	}
	if err := p.close(w); err != nil {
		return nil, 0, err
	}
	if first == nil {
		return nil, 0, fmt.Errorf("no IncEstHeu run completed")
	}
	return p, metrics.Evaluate(d, first).Accuracy, nil
}

// incEstHeu runs IncEstHeu to completion. Traced, the run is one op whose
// children are its rounds, each timed from the end of the previous one
// (the first from the call) to the engine's per-round callback.
func incEstHeu(ctx context.Context, d *truth.Dataset, tr *tracer) (*truth.Result, error) {
	op := tr.newOp()
	if !tr.recording() {
		return core.NewHeu().RunWith(ctx, d, engine.Options{})
	}
	a0 := readRuntime()
	id := tr.start("core.incestimate.run", op, 0)
	last := tr.spans[id-1].Start
	rounds := 0
	r, err := core.NewHeu().RunWith(ctx, d, engine.Options{Observer: func(engine.Round) {
		now := tr.now()
		tr.add("engine.round", op, id, last, now)
		last = now
		rounds++
	}})
	tr.end(id)
	tr.setAlloc(id, a0, readRuntime())
	tr.setCount(id, int64(rounds))
	return r, err
}
