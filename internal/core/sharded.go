package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// streamShardThreshold is the group count below which a sharded stream
// decides its batch sequentially: the per-group decision costs
// microseconds, so goroutine handoff would dominate on small batches. The
// decided values are identical either way — tests lower the threshold to
// force the concurrent path on tiny batches.
var streamShardThreshold = 16

// shardOf assigns a fact-group signature to a shard via FNV-1a. The hash
// only routes work; results never depend on the assignment.
func shardOf(signature string, shards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(signature); i++ {
		h ^= uint32(signature[i])
		h *= 16777619
	}
	return int(h % uint32(shards))
}

// decideGroups fills raw and final decided probabilities (indexed by group
// ordinal) for every group of a batch under the frozen batch-entry trust.
// With more than one shard and enough groups, the groups are partitioned
// by signature hash and the shards are drained by a bounded worker pool
// (rankWorkers overrides its size); each worker writes
// only its own shards' ordinal slots, so the fan-out is data-race free and
// the filled arrays are independent of scheduling. Because every group is
// decided under the frozen batch-entry trust and the caller merges in the
// global sorted group order, a stream with ANY shard count produces
// byte-identical trust state and decided-fact log to a one-shard stream fed
// the same batches — verified by the differential suite in sharded_test.go.
//
// Failure handling is a degradation ladder. A panic inside a shard worker
// is recovered into a *GroupPanicError and the whole batch is re-decided
// on the sequential path — decisions are pure functions of (group,
// batch-entry trust), so the retry recomputes every slot and the output
// stays byte-identical to an undisturbed run. Only when the sequential
// retry panics too (a deterministic bug, not a scheduling casualty) does
// the error surface, and the caller rejects the batch atomically.
// Cancellation aborts between groups and returns ctx.Err().
func (st *Stream) decideGroups(ctx context.Context, groups []*group, trust []float64) (raw, final []float64, err error) {
	shards := st.shards
	raw = make([]float64, len(groups))
	final = make([]float64, len(groups))
	if shards <= 1 || len(groups) < streamShardThreshold {
		if err := st.decideSequential(ctx, groups, trust, raw, final); err != nil {
			return nil, nil, err
		}
		return raw, final, nil
	}
	buckets := make([][]*group, shards)
	for _, g := range groups {
		s := shardOf(g.signature, shards)
		buckets[s] = append(buckets[s], g)
	}
	workers := rankWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	var (
		next     atomic.Int64
		abort    atomic.Bool
		mu       sync.Mutex
		panicked *GroupPanicError
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= shards || abort.Load() || ctx.Err() != nil {
					return
				}
				for _, g := range buckets[i] {
					r, fin, perr := st.decideGroupGuarded(g, trust)
					if perr != nil {
						mu.Lock()
						if panicked == nil {
							panicked = perr
						}
						mu.Unlock()
						abort.Store(true)
						return
					}
					raw[g.ord], final[g.ord] = r, fin
				}
			}
		}()
	}
	wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, cerr
	}
	if panicked != nil {
		// Degrade: one shard worker went down; retry the whole batch
		// sequentially with containment still on. Every slot is
		// recomputed, so the partially filled arrays carry no state over.
		if err := st.decideSequential(ctx, groups, trust, raw, final); err != nil {
			return nil, nil, err
		}
	}
	return raw, final, nil
}

// decideSequential decides every group in ordinal-slot order on the
// calling goroutine, with panic containment and periodic cancellation
// checks. It is both the small-batch fast path and the degraded retry
// path of the shard fan-out.
func (st *Stream) decideSequential(ctx context.Context, groups []*group, trust []float64, raw, final []float64) error {
	for i, g := range groups {
		if i&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		r, fin, perr := st.decideGroupGuarded(g, trust)
		if perr != nil {
			return perr
		}
		raw[g.ord], final[g.ord] = r, fin
	}
	return nil
}
