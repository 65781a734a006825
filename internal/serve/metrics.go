package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// worldMetrics are one tenant's counters, all lock-free: handlers and the
// consumer bump them from their own goroutines, /metrics reads them
// without coordinating with either.
type worldMetrics struct {
	admitted          atomic.Int64 // jobs accepted into the queue
	rejectedQueueFull atomic.Int64 // 429s: queue at capacity
	rejectedReadOnly  atomic.Int64 // 503s: world degraded read-only
	rejectedDraining  atomic.Int64 // 503s: admission closed for drain
	rejectedInvalid   atomic.Int64 // 400s: stream rejected the batch atomically
	expired           atomic.Int64 // requests that timed out awaiting acknowledgment

	batches atomic.Int64 // acknowledged batches
	votes   atomic.Int64 // votes inside acknowledged batches

	batchNanosSum atomic.Int64 // total apply+checkpoint latency
	batchNanosMax atomic.Int64

	checkpointFailures atomic.Int64 // exhausted sink commits and saves
	lastCheckpoint     atomic.Int64 // UnixNano of the last durable commit; 0 = never
	logBytes           atomic.Int64 // checkpoint log length
	compactions        atomic.Int64 // full checkpoints written
}

// observeBatchLatency folds one acknowledged batch's latency into the
// sum/max aggregates (count is the batches counter).
func (m *worldMetrics) observeBatchLatency(d time.Duration) {
	n := int64(d)
	m.batchNanosSum.Add(n)
	for {
		cur := m.batchNanosMax.Load()
		if n <= cur || m.batchNanosMax.CompareAndSwap(cur, n) {
			return
		}
	}
}

// writeMetrics renders one world's metrics in the Prometheus text
// exposition format. Tenants are rendered in sorted-name order by the
// server, so the full page is deterministic for a given counter state.
func (w *World) writeMetrics(out io.Writer, now time.Time) {
	t := w.name
	snap := w.Snapshot()
	var ro int
	if w.ReadOnly() {
		ro = 1
	}
	age := -1.0 // never checkpointed (or no sink)
	if last := w.m.lastCheckpoint.Load(); last != 0 {
		age = now.Sub(time.Unix(0, last)).Seconds()
	}
	fmt.Fprintf(out, "corrod_queue_depth{tenant=%q} %d\n", t, w.QueueDepth())
	fmt.Fprintf(out, "corrod_queue_capacity{tenant=%q} %d\n", t, w.QueueCap())
	fmt.Fprintf(out, "corrod_admitted_total{tenant=%q} %d\n", t, w.m.admitted.Load())
	fmt.Fprintf(out, "corrod_rejected_total{tenant=%q,reason=\"queue_full\"} %d\n", t, w.m.rejectedQueueFull.Load())
	fmt.Fprintf(out, "corrod_rejected_total{tenant=%q,reason=\"read_only\"} %d\n", t, w.m.rejectedReadOnly.Load())
	fmt.Fprintf(out, "corrod_rejected_total{tenant=%q,reason=\"draining\"} %d\n", t, w.m.rejectedDraining.Load())
	fmt.Fprintf(out, "corrod_rejected_total{tenant=%q,reason=\"invalid\"} %d\n", t, w.m.rejectedInvalid.Load())
	fmt.Fprintf(out, "corrod_expired_total{tenant=%q} %d\n", t, w.m.expired.Load())
	fmt.Fprintf(out, "corrod_ingested_batches_total{tenant=%q} %d\n", t, w.m.batches.Load())
	fmt.Fprintf(out, "corrod_ingested_votes_total{tenant=%q} %d\n", t, w.m.votes.Load())
	fmt.Fprintf(out, "corrod_batch_seconds_sum{tenant=%q} %.9f\n", t, time.Duration(w.m.batchNanosSum.Load()).Seconds())
	fmt.Fprintf(out, "corrod_batch_seconds_max{tenant=%q} %.9f\n", t, time.Duration(w.m.batchNanosMax.Load()).Seconds())
	fmt.Fprintf(out, "corrod_checkpoint_failures_total{tenant=%q} %d\n", t, w.m.checkpointFailures.Load())
	fmt.Fprintf(out, "corrod_checkpoint_age_seconds{tenant=%q} %.3f\n", t, age)
	fmt.Fprintf(out, "corrod_checkpoint_log_bytes{tenant=%q} %d\n", t, w.m.logBytes.Load())
	fmt.Fprintf(out, "corrod_checkpoint_compactions_total{tenant=%q} %d\n", t, w.m.compactions.Load())
	fmt.Fprintf(out, "corrod_read_only{tenant=%q} %d\n", t, ro)
	fmt.Fprintf(out, "corrod_stream_batches{tenant=%q} %d\n", t, snap.Batches)
	fmt.Fprintf(out, "corrod_stream_facts{tenant=%q} %d\n", t, len(snap.Facts))
	fmt.Fprintf(out, "corrod_stream_sources{tenant=%q} %d\n", t, len(snap.Trust))
}
