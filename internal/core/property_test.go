package core

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	driver "corroborate/internal/engine"
	"corroborate/internal/synth"
	"corroborate/internal/truth"
)

// randomDataset builds a deterministic pseudo-random labeled dataset from a
// seed, with a vote mix tilted toward the paper's affirmative regime.
func randomDataset(seed uint64, sources, facts int) *truth.Dataset {
	state := seed*2862933555777941757 + 3037000493
	next := func(n uint64) uint64 {
		state = state*2862933555777941757 + 3037000493
		return (state >> 33) % n
	}
	b := truth.NewBuilder()
	for s := 0; s < sources; s++ {
		b.Source("s" + string(rune('A'+s%26)))
	}
	for f := 0; f < facts; f++ {
		name := make([]byte, 0, 8)
		name = append(name, 'f')
		for v := f; ; v /= 10 {
			name = append(name, byte('0'+v%10))
			if v < 10 {
				break
			}
		}
		fi := b.Fact(string(name))
		for s := 0; s < sources; s++ {
			switch next(10) {
			case 0, 1, 2, 3:
				b.Vote(fi, s, truth.Affirm)
			case 4:
				if next(5) == 0 { // F votes are rare
					b.Vote(fi, s, truth.Deny)
				}
			}
		}
		if next(2) == 0 {
			b.Label(fi, truth.True)
		} else {
			b.Label(fi, truth.False)
		}
	}
	return b.Build()
}

// TestIncEstimateInvariantsOnRandomWorlds: on arbitrary vote matrices,
// every strategy must terminate, produce in-range probabilities, decide
// each fact exactly once, and keep trust inside [0, 1] at every time point.
func TestIncEstimateInvariantsOnRandomWorlds(t *testing.T) {
	strategies := []*IncEstimate{NewHeu(), NewPS(), NewScale(),
		{Strategy: SelectHybrid}, {SoftAbsorb: true}}
	prop := func(seed uint64, nsRaw, nfRaw uint8) bool {
		sources := 1 + int(nsRaw%7)
		facts := 1 + int(nfRaw%60)
		d := randomDataset(seed, sources, facts)
		for _, e := range strategies {
			run, err := e.RunDetailedWith(context.Background(), d, driver.Options{})
			if err != nil {
				t.Logf("seed=%d %s: %v", seed, e.Name(), err)
				return false
			}
			if err := run.Result.Check(d); err != nil {
				t.Logf("seed=%d %s: %v", seed, e.Name(), err)
				return false
			}
			seen := make(map[int]bool)
			for _, tp := range run.Trajectory {
				if len(tp.Trust) != d.NumSources() {
					return false
				}
				for _, tr := range tp.Trust {
					if tr < 0 || tr > 1 || tr != tr {
						return false
					}
				}
				for _, f := range tp.Evaluated {
					if seen[f] {
						return false
					}
					seen[f] = true
				}
			}
			if len(seen) != d.NumFacts() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStreamEquivalenceSingleBatch: feeding a whole dataset as one stream
// batch must decide every fact exactly once with valid probabilities.
func TestStreamInvariantsOnRandomWorlds(t *testing.T) {
	prop := func(seed uint64, nfRaw uint8) bool {
		facts := 1 + int(nfRaw%40)
		d := randomDataset(seed, 4, facts)
		var votes []BatchVote
		for f := 0; f < d.NumFacts(); f++ {
			for _, sv := range d.VotesOnFact(f) {
				votes = append(votes, BatchVote{
					Fact:   d.FactName(f),
					Source: d.SourceName(sv.Source),
					Vote:   sv.Vote,
				})
			}
		}
		if len(votes) == 0 {
			return true
		}
		st := NewShardedStream(1)
		out, err := st.AddBatch(votes)
		if err != nil {
			return false
		}
		seen := make(map[string]bool)
		for _, sf := range out {
			if sf.Probability < 0 || sf.Probability > 1 {
				return false
			}
			if seen[sf.Name] {
				return false
			}
			seen[sf.Name] = true
		}
		for name, tr := range st.Trust() {
			if tr < 0 || tr > 1 {
				t.Logf("trust(%s) = %v", name, tr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// Metamorphic properties (§ issue 3, satellite 1). Each test applies a
// semantics-preserving transformation to the input and asserts the engine's
// output transforms accordingly — bitwise where floating-point arithmetic
// permits an exact argument, since the trust accumulators are integer credit
// sums under hard absorption.

// rebuildVotes copies fact f of src into the builder under fact index fi.
func rebuildVotes(b *truth.Builder, src *truth.Dataset, f, fi int) {
	for _, sv := range src.VotesOnFact(f) {
		b.Vote(fi, sv.Source, sv.Vote)
	}
	b.Label(fi, src.Label(f))
}

// renameSources rebuilds d with every source renamed, preserving the source
// order (and with it every index, signature, and floating-point sum).
func renameSources(d *truth.Dataset, rename func(string) string) *truth.Dataset {
	b := truth.NewBuilder()
	for s := 0; s < d.NumSources(); s++ {
		b.Source(rename(d.SourceName(s)))
	}
	for f := 0; f < d.NumFacts(); f++ {
		rebuildVotes(b, d, f, b.Fact(d.FactName(f)))
	}
	return b.Build()
}

// permuteFacts rebuilds d with facts inserted in the given order.
func permuteFacts(d *truth.Dataset, perm []int) *truth.Dataset {
	b := truth.NewBuilder()
	for s := 0; s < d.NumSources(); s++ {
		b.Source(d.SourceName(s))
	}
	for _, f := range perm {
		rebuildVotes(b, d, f, b.Fact(d.FactName(f)))
	}
	return b.Build()
}

// duplicateFacts rebuilds d with every fact immediately followed by an
// identically-voted twin, so fact i maps to indices 2i and 2i+1.
func duplicateFacts(d *truth.Dataset) *truth.Dataset {
	b := truth.NewBuilder()
	for s := 0; s < d.NumSources(); s++ {
		b.Source(d.SourceName(s))
	}
	for f := 0; f < d.NumFacts(); f++ {
		rebuildVotes(b, d, f, b.Fact(d.FactName(f)))
		rebuildVotes(b, d, f, b.Fact(d.FactName(f)+"#dup"))
	}
	return b.Build()
}

// reversedPerm returns facts in reverse index order.
func reversedPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = n - 1 - i
	}
	return perm
}

// shuffledPerm returns a deterministic pseudo-random permutation.
func shuffledPerm(n int, seed uint64) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	state := seed
	for i := n - 1; i > 0; i-- {
		state = state*2862933555777941757 + 3037000493
		j := int((state >> 33) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// metamorphicConfigs is the strategy set the issue names: the heuristic and
// pattern-scan selectors plus the scale profile the stream uses.
func metamorphicConfigs() []*IncEstimate {
	return []*IncEstimate{NewHeu(), NewPS(), NewScale()}
}

// metamorphicWorlds pairs small seeded synthetic worlds with the pseudo-
// random affirmative-regime datasets.
func metamorphicWorlds(t *testing.T) map[string]*truth.Dataset {
	t.Helper()
	worlds := map[string]*truth.Dataset{
		"rand2":  randomDataset(2, 6, 80),
		"rand19": randomDataset(19, 8, 120),
	}
	w, err := synth.Generate(synth.Config{
		Facts: 1200, AccurateSources: 6, InaccurateSources: 3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	worlds["synth9"] = w.Dataset
	return worlds
}

// TestMetamorphicSourceRelabeling: the algorithm must be invariant under
// renaming sources — names never enter the arithmetic, so full runs are
// bit-identical and stream output is identical modulo the name map.
func TestMetamorphicSourceRelabeling(t *testing.T) {
	rename := func(n string) string { return "zz-" + n + "-renamed" }
	for wname, d := range metamorphicWorlds(t) {
		renamed := renameSources(d, rename)
		for _, e := range metamorphicConfigs() {
			base, err := e.RunDetailedWith(context.Background(), d, driver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			again, err := e.RunDetailedWith(context.Background(), renamed, driver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			requireRunsIdentical(t, fmt.Sprintf("%s/%s", wname, e.Name()), again, base)
		}

		st1, st2 := NewShardedStream(1), NewShardedStream(1)
		feed(t, st1, splitByFact(d, 3))
		feed(t, st2, splitByFact(renamed, 3))
		d1, d2 := st1.Decided(), st2.Decided()
		if len(d1) != len(d2) {
			t.Fatalf("%s: stream decided %d vs %d facts", wname, len(d1), len(d2))
		}
		for i := range d1 {
			if d1[i] != d2[i] { // fact names are untouched by the relabeling
				t.Fatalf("%s: stream decided[%d] %+v vs %+v", wname, i, d1[i], d2[i])
			}
		}
		tr1, tr2 := st1.Trust(), st2.Trust()
		for name, tr := range tr1 {
			if tr2[rename(name)] != tr {
				t.Fatalf("%s: trust[%s] = %v, renamed twin %v", wname, name, tr, tr2[rename(name)])
			}
		}
	}
}

// TestMetamorphicFactOrder: inserting facts in a different order must not
// change the outcome. Groups are keyed by vote signature, so the group
// structure, selection order, and the whole per-round trust trajectory are
// order-free bitwise. Per-fact probabilities are invariant only as a
// multiset: balanced truncation takes a split group's members in insertion
// order, so which member lands in which round is the one thing a
// permutation may legitimately move.
func TestMetamorphicFactOrder(t *testing.T) {
	for wname, d := range metamorphicWorlds(t) {
		perms := map[string][]int{
			"reverse": reversedPerm(d.NumFacts()),
			"shuffle": shuffledPerm(d.NumFacts(), 77),
		}
		for pname, perm := range perms {
			pd := permuteFacts(d, perm)
			for _, e := range metamorphicConfigs() {
				label := fmt.Sprintf("%s/%s/%s", wname, pname, e.Name())
				base, err := e.RunDetailedWith(context.Background(), d, driver.Options{})
				if err != nil {
					t.Fatal(err)
				}
				again, err := e.RunDetailedWith(context.Background(), pd, driver.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for s := range base.Trust {
					if again.Trust[s] != base.Trust[s] {
						t.Fatalf("%s: trust[%d] = %v, want %v", label, s, again.Trust[s], base.Trust[s])
					}
				}
				if again.Iterations != base.Iterations {
					t.Fatalf("%s: %d iterations, want %d", label, again.Iterations, base.Iterations)
				}
				for i := range base.Trajectory {
					bt, at := base.Trajectory[i], again.Trajectory[i]
					if len(at.Evaluated) != len(bt.Evaluated) {
						t.Fatalf("%s: round %d evaluated %d facts, want %d", label, i, len(at.Evaluated), len(bt.Evaluated))
					}
					for s := range bt.Trust {
						if at.Trust[s] != bt.Trust[s] {
							t.Fatalf("%s: round %d trust[%d] = %v, want %v", label, i, s, at.Trust[s], bt.Trust[s])
						}
					}
				}
				a, b := append([]float64(nil), base.FactProb...), append([]float64(nil), again.FactProb...)
				sort.Float64s(a)
				sort.Float64s(b)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s: probability multiset diverges at %d: %v vs %v", label, i, b[i], a[i])
					}
				}
			}
		}
	}
}

// TestMetamorphicFactOrderStream: with the source interning order pinned by
// a warm-up batch, permuting the fact order inside a batch is invisible to
// the stream — identical signatures, identical group sums, identical trust.
func TestMetamorphicFactOrderStream(t *testing.T) {
	for wname, d := range metamorphicWorlds(t) {
		var warm []BatchVote
		for _, name := range d.SourceNames() {
			warm = append(warm, BatchVote{Fact: "warm-up", Source: name, Vote: truth.Affirm})
		}
		run := func(perm []int) *Stream {
			st := NewShardedStream(1)
			feed(t, st, [][]BatchVote{warm, batchVotesOf(permuteFacts(d, perm))})
			return st
		}
		identity := make([]int, d.NumFacts())
		for i := range identity {
			identity[i] = i
		}
		st1, st2 := run(identity), run(reversedPerm(d.NumFacts()))
		tr1, tr2 := st1.Trust(), st2.Trust()
		for name, tr := range tr1 {
			if tr2[name] != tr {
				t.Fatalf("%s: trust[%s] = %v vs %v", wname, name, tr2[name], tr)
			}
		}
		byName := func(st *Stream) map[string]StreamFact {
			out := make(map[string]StreamFact)
			for _, sf := range st.Decided() {
				out[sf.Name] = sf
			}
			return out
		}
		want, got := byName(st1), byName(st2)
		if len(want) != len(got) {
			t.Fatalf("%s: decided %d vs %d distinct facts", wname, len(got), len(want))
		}
		for name, sf := range want {
			if got[name] != sf {
				t.Fatalf("%s: decided[%s] = %+v, want %+v", wname, name, got[name], sf)
			}
		}
	}
}

// TestMetamorphicVoteDuplication: doubling every fact (k = 2, adjacent
// twins) doubles every group size and credit sum, which is exact in IEEE
// arithmetic and cancels in every trust quotient and Eq. 5 mean — so
// probabilities, predictions, and trust are bit-identical, twin against
// twin and against the undoubled base run.
func TestMetamorphicVoteDuplication(t *testing.T) {
	for wname, d := range metamorphicWorlds(t) {
		dd := duplicateFacts(d)
		for _, e := range metamorphicConfigs() {
			label := fmt.Sprintf("%s/%s", wname, e.Name())
			base, err := e.RunDetailedWith(context.Background(), d, driver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			dup, err := e.RunDetailedWith(context.Background(), dd, driver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for f := 0; f < d.NumFacts(); f++ {
				p, q := dup.FactProb[2*f], dup.FactProb[2*f+1]
				if p != q {
					t.Fatalf("%s: twins of %s diverge: %v vs %v", label, d.FactName(f), p, q)
				}
				if p != base.FactProb[f] {
					t.Fatalf("%s: prob[%s] = %v, undoubled run %v", label, d.FactName(f), p, base.FactProb[f])
				}
				if dup.Predictions[2*f] != base.Predictions[f] {
					t.Fatalf("%s: prediction[%s] flipped under duplication", label, d.FactName(f))
				}
			}
			for s := range base.Trust {
				if dup.Trust[s] != base.Trust[s] {
					t.Fatalf("%s: trust[%d] = %v, undoubled run %v", label, s, dup.Trust[s], base.Trust[s])
				}
			}
		}

		// The stream inherits the same exactness: per-group decisions only
		// read the posting lists (unchanged), and absorption scales credit
		// and count by the same factor of two.
		st1, st2 := NewShardedStream(1), NewShardedStream(1)
		feed(t, st1, splitByFact(d, 3))
		feed(t, st2, splitByFact(dd, 3))
		byName := func(st *Stream) map[string]StreamFact {
			out := make(map[string]StreamFact)
			for _, sf := range st.Decided() {
				out[sf.Name] = sf
			}
			return out
		}
		want, got := byName(st1), byName(st2)
		for name, sf := range want {
			twin := got[name+"#dup"]
			if got[name].Probability != sf.Probability || got[name].Prediction != sf.Prediction {
				t.Fatalf("%s stream: decided[%s] = %+v, want %+v", wname, name, got[name], sf)
			}
			if twin.Probability != sf.Probability || twin.Prediction != sf.Prediction {
				t.Fatalf("%s stream: twin of %s = %+v, want %+v", wname, name, twin, sf)
			}
		}
		tr1, tr2 := st1.Trust(), st2.Trust()
		for name, tr := range tr1 {
			if tr2[name] != tr {
				t.Fatalf("%s stream: trust[%s] = %v, undoubled %v", wname, name, tr2[name], tr)
			}
		}
	}
}
