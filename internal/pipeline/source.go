package pipeline

import (
	"corroborate/internal/synth"
	"corroborate/internal/truth"
)

// Range streams the integers 0..n-1: the index source that zips parallel
// columns (trust vectors, trajectories) into the operator layer.
func Range(n int) Seq[int] {
	return func(yield func(int) bool) {
		for i := 0; i < n; i++ {
			if !yield(i) {
				return
			}
		}
	}
}

// VoteRow is one (fact, source, vote) element of a dataset's vote stream.
type VoteRow struct {
	Fact   int
	Source int
	Vote   truth.Vote
}

// FromDataset streams every vote of the dataset in its canonical order:
// fact-major, sources ascending within a fact (the CSR storage order).
func FromDataset(d *truth.Dataset) Seq[VoteRow] {
	return func(yield func(VoteRow) bool) {
		for f := 0; f < d.NumFacts(); f++ {
			for _, sv := range d.VotesOnFact(f) {
				if !yield(VoteRow{Fact: f, Source: sv.Source, Vote: sv.Vote}) {
					return
				}
			}
		}
	}
}

// FromSourceVotes streams one source's posting list in fact order.
func FromSourceVotes(d *truth.Dataset, s int) Seq[truth.FactVote] {
	return FromSlice(d.VotesBySource(s))
}

// GoldenFact is one element of a dataset's golden evaluation stream.
type GoldenFact struct {
	Fact  int
	Label truth.Label
}

// FromGolden streams the dataset's evaluation subset in Golden order with
// each fact's ground-truth label (possibly Unknown for an explicit golden
// set), without materializing the index slice Golden copies.
func FromGolden(d *truth.Dataset) Seq[GoldenFact] {
	return func(yield func(GoldenFact) bool) {
		d.EachGolden(func(f int) bool {
			return yield(GoldenFact{Fact: f, Label: d.Label(f)})
		})
	}
}

// FromFunc adapts any push-iteration hook that already has the Seq shape
// into a stream. core.StreamSnapshot.EachFact is the canonical instance:
// the serving layer sources its query stream with
// FromFunc[core.StreamFact](snap.EachFact). (The hook stays a method
// value rather than a dependency so this package never imports the
// engine it streams from.)
func FromFunc[T any](f func(yield func(T) bool)) Seq[T] { return Seq[T](f) }

// ScenarioRow is one vote of a scenario batch, tagged with its batch
// index so batch boundaries survive flattening into one stream.
type ScenarioRow struct {
	Batch int
	Vote  synth.ScenarioVote
}

// FromScenario streams a generated scenario's votes batch by batch in
// generation order. Recover the batch boundaries with KeyWindows on the
// Batch tag.
func FromScenario(w *synth.ScenarioWorld) Seq[ScenarioRow] {
	return func(yield func(ScenarioRow) bool) {
		for b := range w.Batches {
			for _, v := range w.Batches[b].Votes {
				if !yield(ScenarioRow{Batch: b, Vote: v}) {
					return
				}
			}
		}
	}
}

// Joined is one output row of JoinGolden: the input row plus the joined
// ground-truth label.
type Joined[T any] struct {
	Row   T
	Label truth.Label
}

// JoinGolden is ⋈ against the golden set: it hash-joins a fact-keyed
// stream with the dataset's evaluation subset, keeping the rows whose fact
// is in the subset and tagging each with its label (possibly Unknown —
// filtering on the label is the consumer's σ). The golden side is the
// build side (O(golden) memory); the streamed side stays lazy.
func JoinGolden[T any](d *truth.Dataset, s Seq[T], fact func(T) int) Seq[Joined[T]] {
	return func(yield func(Joined[T]) bool) {
		golden := make(map[int]truth.Label)
		d.EachGolden(func(f int) bool {
			golden[f] = d.Label(f)
			return true
		})
		s(func(v T) bool {
			label, ok := golden[fact(v)]
			if !ok {
				return true
			}
			return yield(Joined[T]{Row: v, Label: label})
		})
	}
}
