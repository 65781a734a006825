package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"corroborate/internal/core"
	"corroborate/internal/fault"
)

// Sentinel errors of the admission ladder. Handlers map them to HTTP
// status codes; tests assert them with errors.Is.
var (
	// ErrQueueFull rejects an ingest whose tenant queue is at capacity —
	// the admission-control half of backpressure (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("serve: ingest queue full")
	// ErrReadOnly rejects an ingest on a tenant whose checkpoint sink has
	// persistently failed: the world keeps serving queries from memory but
	// refuses to grow state it can no longer make durable.
	ErrReadOnly = errors.New("serve: tenant is read-only (checkpoint sink failing)")
	// ErrDraining rejects an ingest that arrives after drain began.
	ErrDraining = errors.New("serve: draining, not admitting new batches")
	// ErrNotAcknowledged reports an ingest whose request context expired
	// while the batch was queued or in flight. The batch MAY still be
	// applied — admission is a promise to try, acknowledgment is the only
	// promise of durability — so the client must treat the outcome as
	// unknown and re-query before re-sending.
	ErrNotAcknowledged = errors.New("serve: request expired before acknowledgment; batch may still be applied")
	// ErrNotDurable reports a batch the world applied in memory but could
	// not make durable: the checkpoint sink failed, so the requester is not
	// acknowledged (HTTP 503).
	ErrNotDurable = errors.New("applied but not durable")
)

// WorldConfig configures one tenant world.
type WorldConfig struct {
	// Name is the tenant identifier (the {tenant} path segment).
	Name string
	// Shards is the stream's shard count; <1 means 1.
	Shards int
	// QueueDepth bounds the ingest job queue — the tenant's in-flight cap
	// is QueueDepth queued plus one batch being applied. 0 means 64.
	QueueDepth int
	// CheckpointPath is the durable checkpoint location; empty runs the
	// world in memory only (no durability, no restart safety).
	CheckpointPath string
	// TrustDecay is the per-batch trust-decay factor λ; 0 disables. A
	// resumed world must agree with its checkpoint's recorded factor.
	TrustDecay float64
	// ReadOnlyAfter is how many consecutive exhausted checkpoint commits
	// (each already retried with backoff inside the sink) flip the world
	// read-only. 0 means 3. Negative trips on the first failure.
	ReadOnlyAfter int
	// FS and Sleeper are forwarded to the checkpoint sink; nil selects
	// the real filesystem and clock. Tests inject faults here.
	FS      fault.FS
	Sleeper fault.Sleeper
	// Clock supplies the time for latency and checkpoint-age metrics; nil
	// means time.Now.
	Clock func() time.Time
	// Gate, when non-nil, is called by the consumer before each dequeued
	// job is applied. The fault battery uses it to hold the consumer at a
	// deterministic point (fill the queue, then release); production
	// worlds leave it nil.
	Gate func()
}

// IngestResult is the acknowledgment of one applied batch. By the time a
// caller sees it the batch has been absorbed into the stream AND — for a
// durable world — committed by the checkpoint sink (its log record
// fsynced, or a full checkpoint written), so an acknowledged batch
// survives any subsequent crash.
type IngestResult struct {
	// Batch is the index the batch was absorbed at.
	Batch int
	// Facts are the batch's corroborated facts in evaluation order.
	Facts []core.StreamFact
}

// job is one queued ingest. The reply channel is buffered so the consumer
// never blocks on a requester that gave up waiting.
type job struct {
	votes []core.BatchVote
	reply chan jobResult
}

type jobResult struct {
	res IngestResult
	err error
}

// World is one tenant: a core.Stream fed through a bounded
// producer/consumer queue, committed after every batch through a
// crash-safe sink, queried through a published immutable snapshot.
//
// The ingest pipeline is the backpressure chain: HTTP handlers enqueue
// (admission control — a full queue rejects instead of buffering
// unboundedly), a single consumer goroutine applies batches one at a time
// (the stream's batch boundary is the unit of backpressure), and the
// requester is only acknowledged after its batch is both absorbed and
// durably committed. Queries never touch the queue or the stream lock:
// they read the last published StreamSnapshot.
//
// Degradation ladder, outermost rung first: a failed log append is
// retried as a full checkpoint, and transient checkpoint failures with
// exponential backoff, inside the sink; an exhausted commit fails
// that one ingest (shed load — the client retries, no false
// acknowledgment); ReadOnlyAfter consecutive exhausted commits flip the
// world read-only — ingest refused, queries still served — because
// accepting writes that can no longer be made durable would turn the next
// crash into silent data loss. A read-only world never corrupts state; a
// restart (with the sink healthy again) resumes from the newest valid
// checkpoint.
type World struct {
	name string
	// stream is mutated only by the consumer goroutine after OpenWorld
	// returns; readers go through snap.
	stream *core.Stream
	sink   *core.CheckpointSink
	clock  func() time.Time
	gate   func()

	readOnlyAfter int
	sinkFailures  int // consecutive exhausted commits; consumer-only

	qmu    sync.Mutex
	jobs   chan *job
	closed bool

	consumerDone chan struct{}
	drainOnce    sync.Once
	drainErr     error

	readOnly atomic.Bool
	snap     atomic.Pointer[core.StreamSnapshot]
	m        worldMetrics
}

// OpenWorld opens (or resumes) a tenant world and starts its consumer.
// With a checkpoint path, the world restores from the newest valid
// checkpoint; a corrupt one is quarantined to <path>.corrupt (reported in
// the RestoreReport) and the world starts fresh — restart is never blocked
// by a bad recovery point.
func OpenWorld(cfg WorldConfig) (*World, core.RestoreReport, error) {
	if cfg.Name == "" {
		return nil, core.RestoreReport{}, fmt.Errorf("serve: world needs a name")
	}
	if err := validDecay(cfg.TrustDecay); err != nil {
		return nil, core.RestoreReport{}, fmt.Errorf("serve: world %q: %w", cfg.Name, err)
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = 64
	}
	if depth < 1 {
		depth = 1
	}
	roAfter := cfg.ReadOnlyAfter
	if roAfter == 0 {
		roAfter = 3
	}
	if roAfter < 0 {
		roAfter = 1
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}

	var (
		st     *core.Stream
		sink   *core.CheckpointSink
		report core.RestoreReport
	)
	if cfg.CheckpointPath != "" {
		sink = &core.CheckpointSink{Path: cfg.CheckpointPath, FS: cfg.FS, Sleeper: cfg.Sleeper}
		var err error
		st, report, err = sink.Restore(shards)
		if err != nil {
			return nil, report, fmt.Errorf("serve: world %q: %w", cfg.Name, err)
		}
	} else {
		st = core.NewShardedStream(shards)
	}
	// A fresh stream takes the configured decay factor; a resumed one must
	// agree with the factor its checkpoint recorded.
	if err := st.SetTrustDecay(cfg.TrustDecay); err != nil {
		return nil, report, fmt.Errorf("serve: world %q: %w", cfg.Name, err)
	}

	w := &World{
		name:          cfg.Name,
		stream:        st,
		sink:          sink,
		clock:         clock,
		gate:          cfg.Gate,
		readOnlyAfter: roAfter,
		jobs:          make(chan *job, depth),
		consumerDone:  make(chan struct{}),
	}
	if report.Resumed {
		// The restored state is already durable; the age gauge starts at
		// "just checkpointed" rather than "never".
		w.m.lastCheckpoint.Store(clock().UnixNano())
	}
	w.observeSink()
	w.publish()
	go w.consume()
	return w, report, nil
}

// validDecay mirrors core.Stream.SetTrustDecay's range check so a bad
// factor is refused at configuration time, before any state exists.
func validDecay(lambda float64) error {
	if math.IsNaN(lambda) || lambda < 0 || lambda > 1 {
		return fmt.Errorf("trust decay %v out of [0, 1]", lambda)
	}
	return nil
}

// Name returns the tenant name.
func (w *World) Name() string { return w.name }

// ReadOnly reports whether the world has degraded to read-only.
func (w *World) ReadOnly() bool { return w.readOnly.Load() }

// QueueDepth reports how many jobs are queued right now.
func (w *World) QueueDepth() int { return len(w.jobs) }

// QueueCap reports the queue's capacity (the admission bound).
func (w *World) QueueCap() int { return cap(w.jobs) }

// Snapshot returns the last published consistent view of the stream. The
// snapshot is immutable; callers may hold it as long as they like.
func (w *World) Snapshot() *core.StreamSnapshot { return w.snap.Load() }

// publish captures and publishes a fresh snapshot. Called by OpenWorld
// before the consumer starts and by the consumer after each batch.
func (w *World) publish() {
	s := w.stream.Snapshot()
	w.snap.Store(&s)
}

// Ingest submits one batch and waits for its acknowledgment. The error is
// ErrQueueFull / ErrReadOnly / ErrDraining when admission refuses the
// batch (nothing was enqueued), ErrNotAcknowledged when ctx expired while
// the batch was queued or in flight (the batch may still be applied), a
// validation error when the stream rejected the batch atomically, or a
// checkpoint error when the batch was applied but could not be made
// durable (not acknowledged; the world may now be read-only).
func (w *World) Ingest(ctx context.Context, votes []core.BatchVote) (IngestResult, error) {
	if w.readOnly.Load() {
		w.m.rejectedReadOnly.Add(1)
		return IngestResult{}, ErrReadOnly
	}
	j := &job{votes: votes, reply: make(chan jobResult, 1)}
	if err := w.enqueue(j); err != nil {
		return IngestResult{}, err
	}
	w.m.admitted.Add(1)
	select {
	case r := <-j.reply:
		return r.res, r.err
	case <-ctx.Done():
		w.m.expired.Add(1)
		return IngestResult{}, fmt.Errorf("%w (%v)", ErrNotAcknowledged, ctx.Err())
	}
}

// enqueue admits a job or refuses with the reason. The mutex makes the
// closed-check-then-send atomic against Drain closing the channel.
func (w *World) enqueue(j *job) error {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	if w.closed {
		w.m.rejectedDraining.Add(1)
		return ErrDraining
	}
	select {
	case w.jobs <- j:
		return nil
	default:
		w.m.rejectedQueueFull.Add(1)
		return ErrQueueFull
	}
}

// consume is the world's single consumer goroutine: it applies queued
// batches in admission order until the queue is closed and drained.
func (w *World) consume() {
	defer close(w.consumerDone)
	for j := range w.jobs {
		if w.gate != nil {
			w.gate()
		}
		j.reply <- w.apply(j.votes)
	}
}

// apply absorbs one batch and makes it durable; it runs only on the
// consumer goroutine. The acknowledgment ordering is the crash-safety
// contract: absorb, then commit, then ack — so an acknowledged batch is
// always inside the durable checkpoint and its log, and a crash can only
// lose batches whose requesters were never told they succeeded.
func (w *World) apply(votes []core.BatchVote) jobResult {
	if w.readOnly.Load() {
		// The world tripped read-only while this job sat in the queue;
		// refuse it instead of widening the gap memory has over disk.
		w.m.rejectedReadOnly.Add(1)
		return jobResult{err: ErrReadOnly}
	}
	start := w.clock()
	// The job's request context deliberately does not govern the apply: an
	// admitted batch runs to its batch boundary even if the requester gave
	// up, so the stream always sits at a checkpointable boundary.
	facts, err := w.stream.AddBatchContext(context.Background(), votes)
	if err != nil {
		// Atomic rejection (validation or contained panic): the stream is
		// untouched, the requester gets the cause, nothing to checkpoint.
		w.m.rejectedInvalid.Add(1)
		return jobResult{err: err}
	}
	batch := w.stream.Batches() - 1
	if w.sink != nil {
		serr := w.sink.Commit(w.stream)
		w.observeSink()
		if serr != nil {
			w.m.checkpointFailures.Add(1)
			w.sinkFailures++
			if w.sinkFailures >= w.readOnlyAfter {
				w.readOnly.Store(true)
			}
			// The batch IS absorbed in memory (queries will see it) but is
			// not durable, so the requester is not acknowledged: a crash
			// now would lose it, and "acknowledged" must mean "survives a
			// crash". Publish so reads stay consistent with memory.
			w.publish()
			return jobResult{err: fmt.Errorf("serve: batch %d %w: %w", batch, ErrNotDurable, serr)}
		}
		w.sinkFailures = 0
		w.m.lastCheckpoint.Store(w.clock().UnixNano())
	}
	w.publish()
	w.m.batches.Add(1)
	w.m.votes.Add(int64(len(votes)))
	w.m.observeBatchLatency(w.clock().Sub(start))
	return jobResult{res: IngestResult{Batch: batch, Facts: facts}}
}

// StopAdmitting closes the world's admission gate without waiting for the
// queue to flush: later Ingest calls return ErrDraining, queued jobs still
// run to acknowledgment. Idempotent. A server drains by first stopping
// admission on every world, then flushing them one by one — so no tenant
// keeps admitting while another flushes.
func (w *World) StopAdmitting() {
	w.qmu.Lock()
	if !w.closed {
		w.closed = true
		close(w.jobs)
	}
	w.qmu.Unlock()
}

// Drain gracefully shuts the world down: stop admitting, flush every
// queued batch through the normal apply path (each still committed and
// acknowledged), then write a final checkpoint so the on-disk state is
// exactly the drained in-memory state, in one file. Safe to call more
// than once; concurrent and later calls return the first drain's result.
func (w *World) Drain() error {
	w.drainOnce.Do(func() {
		w.StopAdmitting()
		<-w.consumerDone
		if w.sink != nil && !w.readOnly.Load() {
			// Folds the log into the base; it also lands a batch whose
			// commit failed transiently without tripping read-only.
			err := w.sink.Save(w.stream)
			w.observeSink()
			if err != nil {
				w.m.checkpointFailures.Add(1)
				w.drainErr = fmt.Errorf("serve: world %q final checkpoint: %w", w.name, err)
				return
			}
			w.m.lastCheckpoint.Store(w.clock().UnixNano())
		}
	})
	return w.drainErr
}

// observeSink mirrors the sink's log size and compaction count into the
// metrics; the sink itself is consumer-only.
func (w *World) observeSink() {
	if w.sink != nil {
		w.m.logBytes.Store(w.sink.LogBytes())
		w.m.compactions.Store(w.sink.Compactions())
	}
}
