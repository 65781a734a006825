package synth

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"corroborate/internal/truth"
)

// scenarioBase is a config exercising every adversarial regime at once.
func scenarioBase() ScenarioConfig {
	return ScenarioConfig{
		Batches:       4,
		FactsPerBatch: 120,
		HonestSources: 6,
		Blocs: []BlocConfig{
			{Label: "east", Sources: 2, Strength: 0.3, Camouflage: 0.5},
			{Label: "west", Sources: 3, Strength: 0.15},
		},
		Copiers: []CopierConfig{
			{Leader: 1, Count: 2, Noise: 0.1},
			{Leader: 2},
		},
		Drift:     DriftConfig{DecaySources: 1, Decay: 0.6, FlipSources: 1, FlipAt: 2},
		ChurnRate: 0.2,
		Seed:      17,
	}
}

func TestScenarioShape(t *testing.T) {
	cfg := scenarioBase()
	w, err := GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Batches) != cfg.Batches {
		t.Fatalf("batches = %d, want %d", len(w.Batches), cfg.Batches)
	}
	for i, b := range w.Batches {
		if len(b.Facts) != cfg.FactsPerBatch {
			t.Errorf("batch %d: %d facts, want %d", i, len(b.Facts), cfg.FactsPerBatch)
		}
		for _, f := range b.Facts {
			if _, ok := w.Truth[f]; !ok {
				t.Fatalf("batch %d fact %s has no truth assignment", i, f)
			}
		}
		for _, v := range b.Votes {
			if v.Vote != truth.Affirm && v.Vote != truth.Deny {
				t.Fatalf("batch %d: vote %v is neither Affirm nor Deny", i, v.Vote)
			}
		}
	}
	if got, want := w.AdversarialSources(), 2+3+2+1; got != want {
		t.Errorf("adversarial sources = %d, want %d", got, want)
	}
	d := w.Dataset()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumFacts() != cfg.Batches*cfg.FactsPerBatch {
		t.Errorf("flattened dataset has %d facts, want %d", d.NumFacts(), cfg.Batches*cfg.FactsPerBatch)
	}
}

// TestScenarioSpammersCoordinate: on every fact a bloc attacks, all members
// cast the identical wrong answer — never a split vote, never the truth.
func TestScenarioSpammersCoordinate(t *testing.T) {
	w, err := GenerateScenario(ScenarioConfig{
		Batches: 3, FactsPerBatch: 200, HonestSources: 4,
		Blocs: []BlocConfig{{Sources: 3, Strength: 0.4}},
		Seed:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[string]bool)
	for _, s := range w.Sources {
		if s.Role == RoleSpammer {
			members[s.Name] = true
		}
	}
	attacked := 0
	for _, b := range w.Batches {
		perFact := make(map[string][]truth.Vote)
		for _, v := range b.Votes {
			if members[v.Source] {
				perFact[v.Fact] = append(perFact[v.Fact], v.Vote)
			}
		}
		for fact, votes := range perFact {
			// Camouflage is 0, so any bloc vote is an attack: every member
			// votes, and all of them cast the wrong answer.
			if len(votes) != 3 {
				t.Fatalf("fact %s: bloc cast %d votes, want all 3 members", fact, len(votes))
			}
			attacked++
			want := truth.Deny
			if w.Truth[fact] == truth.False {
				want = truth.Affirm
			}
			for _, v := range votes {
				if v != want {
					t.Fatalf("fact %s (truth %v): bloc member voted %v, want coordinated %v",
						fact, w.Truth[fact], v, want)
				}
			}
		}
	}
	// Strength 0.4 over 600 facts: the attack must actually materialize.
	if attacked < 150 || attacked > 330 {
		t.Errorf("bloc attacked %d facts, want ≈ 240 of 600", attacked)
	}
}

// voteKey strips the source from a vote for multiset comparison.
type voteKey struct {
	fact string
	vote truth.Vote
}

// votesBySource gathers one source's votes across all batches.
func votesBySource(w *ScenarioWorld, name string) map[voteKey]int {
	out := make(map[voteKey]int)
	for _, b := range w.Batches {
		for _, v := range b.Votes {
			if v.Source == name {
				out[voteKey{v.Fact, v.Vote}]++
			}
		}
	}
	return out
}

// TestMetamorphicZeroNoiseCopier: a copier with zero noise must produce a
// vote multiset identical to its leader's, batch for batch.
func TestMetamorphicZeroNoiseCopier(t *testing.T) {
	w, err := GenerateScenario(ScenarioConfig{
		Batches: 4, FactsPerBatch: 150, HonestSources: 5,
		Copiers: []CopierConfig{{Leader: 3, Count: 2}},
		Seed:    29,
	})
	if err != nil {
		t.Fatal(err)
	}
	leader := "honest03"
	leaderVotes := votesBySource(w, leader)
	if len(leaderVotes) == 0 {
		t.Fatal("leader cast no votes")
	}
	for _, copier := range []string{"copier0-00", "copier0-01"} {
		if got := votesBySource(w, copier); !reflect.DeepEqual(got, leaderVotes) {
			t.Errorf("%s with zero noise diverged from leader %s: %d votes vs %d",
				copier, leader, len(got), len(leaderVotes))
		}
		for i, b := range w.Batches {
			if b.Leaders[copier] != leader {
				t.Errorf("batch %d records leader %q for %s, want %q", i, b.Leaders[copier], copier, leader)
			}
		}
	}
}

// renameBlocs maps the names of one world onto another via the bloc label
// change, leaving every other name untouched.
func relabel(name, from, to string) string {
	if rest, ok := strings.CutPrefix(name, from+"-"); ok {
		return to + "-" + rest
	}
	return name
}

// TestMetamorphicBlocRelabeling: changing a bloc's label renames its
// members and nothing else — every batch's votes, every truth assignment,
// and every churn/drift event are bitwise identical modulo the rename.
func TestMetamorphicBlocRelabeling(t *testing.T) {
	cfg := scenarioBase()
	a, err := GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Blocs[0].Label = "renamed-alpha"
	cfg.Blocs[1].Label = "renamed-beta"
	b, err := GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Truth, b.Truth) {
		t.Fatal("relabeling blocs changed the truth assignment")
	}
	if len(a.Sources) != len(b.Sources) {
		t.Fatalf("roster sizes differ: %d vs %d", len(a.Sources), len(b.Sources))
	}
	for i := range a.Sources {
		want := relabel(relabel(a.Sources[i].Name, "east", "renamed-alpha"), "west", "renamed-beta")
		if b.Sources[i].Name != want {
			t.Fatalf("source %d renamed to %q, want %q", i, b.Sources[i].Name, want)
		}
		sa, sb := a.Sources[i], b.Sources[i]
		sa.Name, sb.Name = "", ""
		if sa != sb {
			t.Fatalf("source %d parameters moved under relabeling: %+v vs %+v", i, sa, sb)
		}
	}
	for bi := range a.Batches {
		av, bv := a.Batches[bi].Votes, b.Batches[bi].Votes
		if len(av) != len(bv) {
			t.Fatalf("batch %d: vote counts differ (%d vs %d)", bi, len(av), len(bv))
		}
		for vi := range av {
			want := av[vi]
			want.Source = relabel(relabel(want.Source, "east", "renamed-alpha"), "west", "renamed-beta")
			if bv[vi] != want {
				t.Fatalf("batch %d vote %d = %+v, want %+v", bi, vi, bv[vi], want)
			}
		}
	}
}

// TestMetamorphicSeedReproducibility: the same seed reproduces the full
// attack schedule byte-for-byte; a different seed does not.
func TestMetamorphicSeedReproducibility(t *testing.T) {
	cfg := scenarioBase()
	a, err := GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must reproduce the scenario byte-for-byte")
	}
	cfg.Seed = 18
	c, err := GenerateScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Batches, c.Batches) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestScenarioDriftDecaysAccuracy: a decaying slot's observed accuracy must
// fall batch over batch toward a coin flip, while stable slots hold.
func TestScenarioDriftDecaysAccuracy(t *testing.T) {
	w, err := GenerateScenario(ScenarioConfig{
		Batches: 6, FactsPerBatch: 2000, HonestSources: 3,
		Drift: DriftConfig{DecaySources: 1, Decay: 0.35},
		Seed:  11,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := func(batch int, source string) float64 {
		right, n := 0, 0
		for _, v := range w.Batches[batch].Votes {
			if v.Source != source {
				continue
			}
			n++
			want := truth.Deny
			if w.Truth[v.Fact] == truth.True {
				want = truth.Affirm
			}
			if v.Vote == want {
				right++
			}
		}
		if n == 0 {
			return math.NaN()
		}
		return float64(right) / float64(n)
	}
	first, last := acc(0, "honest00"), acc(5, "honest00")
	if !(first > 0.65) {
		t.Errorf("decaying source starts at accuracy %v, want > 0.65", first)
	}
	if !(last < 0.56 && last > 0.44) {
		t.Errorf("after 5 decay steps accuracy = %v, want ≈ 0.5", last)
	}
	if stable := acc(5, "honest02"); !(stable > 0.65) {
		t.Errorf("stable source accuracy fell to %v", stable)
	}
}

// TestScenarioFlipInvertsAccuracy: a flipping slot is reliable before
// FlipAt and anti-reliable after.
func TestScenarioFlipInvertsAccuracy(t *testing.T) {
	w, err := GenerateScenario(ScenarioConfig{
		Batches: 4, FactsPerBatch: 2000, HonestSources: 2,
		Drift: DriftConfig{FlipSources: 1, FlipAt: 2},
		Seed:  13,
	})
	if err != nil {
		t.Fatal(err)
	}
	flipper := "honest00"
	if w.Sources[0].FlipsAt != 2 {
		t.Fatalf("slot 0 FlipsAt = %d, want 2", w.Sources[0].FlipsAt)
	}
	acc := func(batch int) float64 {
		right, n := 0, 0
		for _, v := range w.Batches[batch].Votes {
			if v.Source != flipper {
				continue
			}
			n++
			want := truth.Deny
			if w.Truth[v.Fact] == truth.True {
				want = truth.Affirm
			}
			if v.Vote == want {
				right++
			}
		}
		if n == 0 {
			t.Fatalf("batch %d has no %s votes to score", batch, flipper)
		}
		return float64(right) / float64(n)
	}
	if before := acc(1); before < 0.65 {
		t.Errorf("pre-flip accuracy %v, want reliable", before)
	}
	if after := acc(2); after > 0.35 {
		t.Errorf("post-flip accuracy %v, want anti-reliable", after)
	}
}

// TestScenarioChurnReplacesSources: with churn on, later batches must see
// joiners, departed sources stop voting, and leader slots never churn.
func TestScenarioChurnReplacesSources(t *testing.T) {
	w, err := GenerateScenario(ScenarioConfig{
		Batches: 6, FactsPerBatch: 50, HonestSources: 6,
		Copiers:   []CopierConfig{{Leader: 0}},
		ChurnRate: 0.4,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	joiners := 0
	for _, s := range w.Sources {
		if s.Role != RoleHonest {
			continue
		}
		if s.JoinBatch > 0 {
			joiners++
		}
		if s.Slot == 0 && s.JoinBatch != 0 {
			t.Errorf("leader slot 0 churned: %+v", s)
		}
		// A departed source must cast no votes at or after LeaveBatch, and
		// an occupant must be the only voter of its slot while active.
		for bi, b := range w.Batches {
			voted := false
			for _, v := range b.Votes {
				if v.Source == s.Name {
					voted = true
				}
			}
			active := bi >= s.JoinBatch && (s.LeaveBatch < 0 || bi < s.LeaveBatch)
			if voted && !active {
				t.Errorf("source %s voted in batch %d outside its window [%d, %d)",
					s.Name, bi, s.JoinBatch, s.LeaveBatch)
			}
		}
	}
	if joiners == 0 {
		t.Error("churn rate 0.4 over 6 batches produced no joiners")
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []ScenarioConfig{
		{Batches: -1},
		{FactsPerBatch: -5},
		{HonestSources: -2},
		{TruthRate: 1.5},
		{TruthRate: math.NaN()},
		{Coverage: -0.1},
		{Coverage: math.Inf(1)},
		{ChurnRate: 2},
		{Blocs: []BlocConfig{{Sources: -1}}},
		{Blocs: []BlocConfig{{Sources: 1, Strength: math.NaN()}}},
		{Blocs: []BlocConfig{{Sources: 1, Strength: 0.5, Camouflage: -3}}},
		{Copiers: []CopierConfig{{Leader: -1}}},
		{Copiers: []CopierConfig{{Leader: 99}}},
		{Copiers: []CopierConfig{{Leader: 0, Count: -2}}},
		{Copiers: []CopierConfig{{Leader: 0, Noise: 1.01}}},
		{Drift: DriftConfig{DecaySources: -1}},
		{Drift: DriftConfig{DecaySources: 99, Decay: 0.5}},
		{Drift: DriftConfig{DecaySources: 1, Decay: math.NaN()}},
		{Drift: DriftConfig{FlipSources: 1, FlipAt: -2}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate must reject", i, cfg)
		}
		if _, err := GenerateScenario(cfg); err == nil {
			t.Errorf("case %d: GenerateScenario must reject", i)
		}
	}
	if err := (ScenarioConfig{}).Validate(); err != nil {
		t.Errorf("zero config must be valid (defaults): %v", err)
	}
}

func TestParseScenarioConfig(t *testing.T) {
	cfg, err := ParseScenarioConfig([]byte(`{"batches": 3, "honest_sources": 4, "blocs": [{"sources": 2, "strength": 0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Batches != 3 || len(cfg.Blocs) != 1 {
		t.Errorf("decoded %+v", cfg)
	}
	bad := []string{
		`{"batches": -1}`,
		`{"unknown_knob": true}`,
		`{"truth_rate": 7}`,
		`{} trailing`,
		`[1,2,3]`,
		``,
	}
	for _, s := range bad {
		if _, err := ParseScenarioConfig([]byte(s)); err == nil {
			t.Errorf("%q must be rejected", s)
		}
	}
}

func TestCopierPairsSorted(t *testing.T) {
	w, err := GenerateScenario(ScenarioConfig{
		Batches: 2, FactsPerBatch: 10, HonestSources: 4,
		Copiers: []CopierConfig{{Leader: 1, Count: 3}, {Leader: 0}},
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs := w.CopierPairs(0)
	if len(pairs) != 4 {
		t.Fatalf("pairs = %d, want 4", len(pairs))
	}
	if !sort.SliceIsSorted(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] }) {
		t.Error("CopierPairs must be sorted by copier name")
	}
	for _, p := range pairs {
		if !strings.HasPrefix(p[1], "honest") {
			t.Errorf("pair %v: leader must be an honest source", p)
		}
	}
}

// TestScenarioBatchDataset: each batch carries exactly its own facts, every
// one labeled and named for its batch, and its votes name only those facts.
func TestScenarioBatchDataset(t *testing.T) {
	w, err := GenerateScenario(ScenarioConfig{Batches: 3, FactsPerBatch: 25, HonestSources: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range w.Batches {
		if len(b.Facts) != 25 {
			t.Fatalf("batch %d has %d facts", i, len(b.Facts))
		}
		inBatch := make(map[string]bool, len(b.Facts))
		for _, f := range b.Facts {
			if w.Truth[f] == truth.Unknown {
				t.Fatalf("batch %d fact %s unlabeled", i, f)
			}
			if !strings.HasPrefix(f, fmt.Sprintf("b%03d", i)) {
				t.Fatalf("batch %d contains foreign fact %s", i, f)
			}
			inBatch[f] = true
		}
		for _, v := range b.Votes {
			if !inBatch[v.Fact] {
				t.Fatalf("batch %d: vote names foreign fact %s", i, v.Fact)
			}
		}
	}
}
