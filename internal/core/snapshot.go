package core

// StreamSnapshot is a consistent point-in-time view of a stream, taken
// under one lock acquisition: the trust of every source, the decided-fact
// log, and the batch count all describe the same batch boundary. It is the
// read-side hook of the serving layer — a daemon publishes a fresh
// snapshot after each absorbed batch and serves queries from it, so reads
// never contend with an in-flight AddBatch on the stream mutex.
type StreamSnapshot struct {
	// Batches is how many batches the stream had absorbed.
	Batches int
	// Facts is the decided-fact log in evaluation order. The slice shares
	// its backing array with the stream (the log is append-only, so the
	// prefix is immutable); callers must not modify it.
	Facts []StreamFact
	// Trust is the per-source trust at the snapshot boundary, keyed by
	// source name. The map is owned by the caller.
	Trust map[string]float64
	// TrustDecay is the stream's per-batch decay factor, 0 if disabled.
	TrustDecay float64
}

// EachFact iterates the decided-fact log in evaluation order, stopping
// early when yield returns false.
func (s *StreamSnapshot) EachFact(yield func(StreamFact) bool) {
	for i := range s.Facts {
		if !yield(s.Facts[i]) {
			return
		}
	}
}

// Snapshot captures a consistent view of the stream at its current batch
// boundary. Unlike separate Trust/Decided/Batches calls — which each
// acquire the lock and may interleave with a concurrent AddBatch — the
// snapshot's fields are guaranteed to describe one single state.
func (st *Stream) Snapshot() StreamSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := StreamSnapshot{
		Batches:    st.batchesLocked(),
		Facts:      st.decided,
		TrustDecay: st.decay,
		Trust:      make(map[string]float64, st.symtab.Len()),
	}
	for i := 0; i < st.symtab.Len(); i++ {
		snap.Trust[st.symtab.Name(uint32(i))] = st.state.trust(i)
	}
	return snap
}
