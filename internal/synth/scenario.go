// Adversarial & temporal scenario model.
//
// The generator in synth.go reproduces the paper's §6.3.1 worlds, where
// sources err independently and honestly. The truth-discovery literature
// (Li et al., "A Survey on Truth Discovery"; Waguih & Berti-Équille's
// experimental evaluation) shows that is exactly where reproductions break:
// method rankings invert once sources collude, copy, or drift. This file
// adds the regimes those surveys single out, as a seeded deterministic
// batch-arrival model:
//
//   - coordinated spammer blocs: a bloc picks a target fraction of each
//     batch's facts and every member casts the SAME fixed wrong answer on
//     them (Affirm a false fact, Deny a true one), optionally camouflaging
//     with correct votes elsewhere;
//   - copiers: a source replicates the current occupant of an honest slot
//     vote-for-vote, redrawing independently with a configurable noise
//     rate. The generated world records the copier→leader ground truth per
//     batch, which is what internal/depend's detection tests score against;
//   - trust drift: an honest slot's reliability decays geometrically toward
//     a coin flip, or flips to 1-r at a configured batch (the source turns
//     bad);
//   - churn: between batches each honest slot is re-occupied with a fresh
//     source with probability ChurnRate, so streams see sources join and
//     leave mid-history.
//
// Everything is driven by one seeded RNG with a fixed draw order that never
// depends on source names, so renaming blocs (or any source) permutes
// labels without moving a single vote — the metamorphic battery in
// scenario_test.go locks that in.
package synth

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"corroborate/internal/truth"
)

// BlocConfig is one coordinated spammer bloc.
type BlocConfig struct {
	// Label names the bloc; empty means "bloc<i>". Members are named
	// "<label>-s<j>". Labels are presentation only: changing them never
	// changes which votes are cast.
	Label string `json:"label,omitempty"`
	// Sources is the number of bloc members.
	Sources int `json:"sources"`
	// Strength is the probability the bloc attacks any given fact; on an
	// attacked fact every member casts the same wrong answer.
	Strength float64 `json:"strength"`
	// Camouflage is the per-member probability of casting a correct vote on
	// a fact the bloc did not attack, building up cover trust; 0 means the
	// bloc only ever votes on attacked facts.
	Camouflage float64 `json:"camouflage,omitempty"`
}

// CopierConfig is one group of copiers sharing a leader slot.
type CopierConfig struct {
	// Leader is the honest slot index ([0, HonestSources)) being copied;
	// with churn, a copier follows the slot's current occupant.
	Leader int `json:"leader"`
	// Count is the number of copiers with this spec; 0 means 1.
	Count int `json:"count,omitempty"`
	// Noise is the probability a copied vote is redrawn independently
	// instead of replicated; 0 produces an exact replica of the leader.
	Noise float64 `json:"noise,omitempty"`
}

// DriftConfig makes honest slots unreliable over time.
type DriftConfig struct {
	// DecaySources is how many honest slots (the first ones) decay.
	DecaySources int `json:"decay_sources,omitempty"`
	// Decay is the per-batch geometric factor pulling a decaying slot's
	// reliability toward 0.5: rel(b) = 0.5 + (rel0-0.5)·Decay^b. Required
	// in [0, 1] when DecaySources > 0.
	Decay float64 `json:"decay,omitempty"`
	// FlipSources is how many honest slots (after the decaying ones) flip.
	FlipSources int `json:"flip_sources,omitempty"`
	// FlipAt is the batch index at which flipping slots invert their
	// reliability to 1-rel0 — a good source turning bad mid-stream.
	FlipAt int `json:"flip_at,omitempty"`
}

// ScenarioConfig parameterizes the adversarial/temporal generator. Zero
// values select documented defaults; Validate (and the strict decoder
// ParseScenarioConfig) rejects NaN, negative, and out-of-range parameters.
type ScenarioConfig struct {
	// Batches is the number of time points; 0 means 8.
	Batches int `json:"batches,omitempty"`
	// FactsPerBatch is how many fresh facts arrive at each time point;
	// 0 means 400.
	FactsPerBatch int `json:"facts_per_batch,omitempty"`
	// HonestSources is the number of honest slots; 0 means 10.
	HonestSources int `json:"honest_sources,omitempty"`
	// TruthRate is the probability a fact is true; 0 means 0.5.
	TruthRate float64 `json:"truth_rate,omitempty"`
	// Coverage is the probability an active honest source votes on a
	// fact; 0 means 0.6.
	Coverage float64 `json:"coverage,omitempty"`
	// Blocs are the coordinated spammer blocs.
	Blocs []BlocConfig `json:"blocs,omitempty"`
	// Copiers are the copier groups.
	Copiers []CopierConfig `json:"copiers,omitempty"`
	// Drift configures reliability decay and flips.
	Drift DriftConfig `json:"drift,omitempty"`
	// ChurnRate is the per-batch probability an honest slot is re-occupied
	// by a fresh source. Slots serving as copier leaders never churn (the
	// copier→leader ground truth would otherwise dissolve mid-copy).
	ChurnRate float64 `json:"churn_rate,omitempty"`
	// Seed drives the deterministic RNG.
	Seed int64 `json:"seed,omitempty"`
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Batches == 0 {
		c.Batches = 8
	}
	if c.FactsPerBatch == 0 {
		c.FactsPerBatch = 400
	}
	if c.HonestSources == 0 {
		c.HonestSources = 10
	}
	if c.TruthRate == 0 {
		c.TruthRate = 0.5
	}
	if c.Coverage == 0 {
		c.Coverage = 0.6
	}
	return c
}

// badRate reports a NaN, infinite, or out-of-[0,1] probability.
func badRate(x float64) bool {
	return math.IsNaN(x) || math.IsInf(x, 0) || x < 0 || x > 1
}

// Validate rejects configurations the generator cannot honour. It is
// called by GenerateScenario and by the strict decoder, so a fuzzer can
// never drive the generator with NaN strengths or negative counts.
func (c ScenarioConfig) Validate() error {
	c = c.withDefaults()
	if c.Batches < 0 {
		return fmt.Errorf("synth: negative batch count %d", c.Batches)
	}
	if c.FactsPerBatch < 0 {
		return fmt.Errorf("synth: negative facts per batch %d", c.FactsPerBatch)
	}
	if c.HonestSources < 0 {
		return fmt.Errorf("synth: negative honest source count %d", c.HonestSources)
	}
	//lint:ignore floatexact the open-interval endpoints are exact degenerate configs (all-true / all-false worlds); values near them are legitimate skewed worlds
	if badRate(c.TruthRate) || c.TruthRate == 0 || c.TruthRate == 1 {
		return fmt.Errorf("synth: truth rate %v out of (0, 1)", c.TruthRate)
	}
	if badRate(c.Coverage) || c.Coverage == 0 {
		return fmt.Errorf("synth: coverage %v out of (0, 1]", c.Coverage)
	}
	if badRate(c.ChurnRate) {
		return fmt.Errorf("synth: churn rate %v out of [0, 1]", c.ChurnRate)
	}
	for i, bl := range c.Blocs {
		if bl.Sources < 0 {
			return fmt.Errorf("synth: bloc %d has negative source count %d", i, bl.Sources)
		}
		if badRate(bl.Strength) {
			return fmt.Errorf("synth: bloc %d strength %v out of [0, 1]", i, bl.Strength)
		}
		if badRate(bl.Camouflage) {
			return fmt.Errorf("synth: bloc %d camouflage %v out of [0, 1]", i, bl.Camouflage)
		}
	}
	for i, cp := range c.Copiers {
		if cp.Leader < 0 || cp.Leader >= c.HonestSources {
			return fmt.Errorf("synth: copier group %d leader slot %d out of [0, %d)", i, cp.Leader, c.HonestSources)
		}
		if cp.Count < 0 {
			return fmt.Errorf("synth: copier group %d has negative count %d", i, cp.Count)
		}
		if badRate(cp.Noise) {
			return fmt.Errorf("synth: copier group %d noise %v out of [0, 1]", i, cp.Noise)
		}
	}
	d := c.Drift
	if d.DecaySources < 0 || d.FlipSources < 0 {
		return fmt.Errorf("synth: negative drift source counts (%d decay, %d flip)", d.DecaySources, d.FlipSources)
	}
	if d.DecaySources+d.FlipSources > c.HonestSources {
		return fmt.Errorf("synth: drift covers %d slots but only %d honest sources exist",
			d.DecaySources+d.FlipSources, c.HonestSources)
	}
	if d.DecaySources > 0 && badRate(d.Decay) {
		return fmt.Errorf("synth: drift decay %v out of [0, 1]", d.Decay)
	}
	if d.FlipAt < 0 {
		return fmt.Errorf("synth: negative flip batch %d", d.FlipAt)
	}
	return nil
}

// ParseScenarioConfig strictly decodes a JSON scenario configuration:
// unknown fields, trailing data, and any parameter Validate rejects are
// errors — never panics (FuzzScenarioConfig).
func ParseScenarioConfig(data []byte) (ScenarioConfig, error) {
	var cfg ScenarioConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return ScenarioConfig{}, fmt.Errorf("synth: parsing scenario config: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return ScenarioConfig{}, fmt.Errorf("synth: scenario config carries trailing data")
	}
	if err := cfg.Validate(); err != nil {
		return ScenarioConfig{}, err
	}
	return cfg, nil
}

// SourceRole classifies a scenario source.
type SourceRole int

const (
	RoleHonest SourceRole = iota
	RoleSpammer
	RoleCopier
)

func (r SourceRole) String() string {
	switch r {
	case RoleHonest:
		return "honest"
	case RoleSpammer:
		return "spammer"
	case RoleCopier:
		return "copier"
	}
	return fmt.Sprintf("role(%d)", int(r))
}

// ScenarioSource is one source that existed at some point of the scenario,
// with its latent parameters and active window.
type ScenarioSource struct {
	Name string
	Role SourceRole
	// Slot is the honest slot the source occupies (honest sources), the
	// leader slot it copies (copiers), or -1 (spammers).
	Slot int
	// Bloc is the bloc index for spammers; -1 otherwise.
	Bloc int
	// Reliability is the drawn base reliability (honest sources and the
	// independent redraws of copiers).
	Reliability float64
	// Decays and FlipsAt describe the slot's drift behaviour (honest only;
	// FlipsAt < 0 means the source never flips).
	Decays  bool
	FlipsAt int
	// JoinBatch and LeaveBatch bound the active window [JoinBatch,
	// LeaveBatch); LeaveBatch < 0 means active to the end.
	JoinBatch, LeaveBatch int
}

// ScenarioVote is one vote of one batch.
type ScenarioVote struct {
	Fact   string
	Source string
	Vote   truth.Vote
}

// ScenarioBatch is one time point: the fresh facts that arrived and every
// vote cast on them, in deterministic (fact-major, roster-order) order.
type ScenarioBatch struct {
	// Facts lists the batch's fact names in arrival order.
	Facts []string
	// Votes lists every vote, facts in arrival order, sources in roster
	// order within a fact.
	Votes []ScenarioVote
	// Leaders maps each copier name to the honest source it replicated
	// during this batch — the dependence ground truth for internal/depend.
	Leaders map[string]string
}

// ScenarioWorld is a generated adversarial/temporal scenario.
type ScenarioWorld struct {
	// Config is the configuration with defaults applied.
	Config ScenarioConfig
	// Batches are the time points in order.
	Batches []ScenarioBatch
	// Truth assigns the hidden label of every fact name.
	Truth map[string]truth.Label
	// Sources lists every source that ever existed, honest slots first
	// (in slot order, then join order), then blocs, then copiers.
	Sources []ScenarioSource
}

// scenarioState carries the mutable per-slot state while generating.
type slotState struct {
	source int // index into world.Sources of the current occupant
	rel    float64
}

// GenerateScenario builds a deterministic adversarial/temporal world. The
// same configuration (including Seed) reproduces every batch, vote, truth
// assignment, and churn/drift event byte-for-byte.
func GenerateScenario(cfg ScenarioConfig) (*ScenarioWorld, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &ScenarioWorld{Config: cfg, Truth: make(map[string]truth.Label)}

	// Copier leader slots never churn; mark them up front.
	leaderSlot := make([]bool, cfg.HonestSources)
	for _, cp := range cfg.Copiers {
		leaderSlot[cp.Leader] = true
	}

	// Honest slots: the initial occupants. Reliability is drawn U[0.75,
	// 0.95] — clearly better than a coin flip, clearly worse than perfect,
	// so drift and attacks have room to move outcomes either way.
	slots := make([]slotState, cfg.HonestSources)
	drawRel := func() float64 { return 0.75 + 0.2*rng.Float64() }
	for i := range slots {
		src := ScenarioSource{
			Name:        fmt.Sprintf("honest%02d", i),
			Role:        RoleHonest,
			Slot:        i,
			Bloc:        -1,
			Reliability: drawRel(),
			Decays:      i < cfg.Drift.DecaySources,
			FlipsAt:     -1,
			LeaveBatch:  -1,
		}
		if i >= cfg.Drift.DecaySources && i < cfg.Drift.DecaySources+cfg.Drift.FlipSources {
			src.FlipsAt = cfg.Drift.FlipAt
		}
		slots[i] = slotState{source: len(w.Sources), rel: src.Reliability}
		w.Sources = append(w.Sources, src)
	}
	// Spammer blocs.
	type blocMember struct{ source int }
	blocs := make([][]blocMember, len(cfg.Blocs))
	for bi, bl := range cfg.Blocs {
		label := bl.Label
		if label == "" {
			label = fmt.Sprintf("bloc%d", bi)
		}
		for j := 0; j < bl.Sources; j++ {
			w.Sources = append(w.Sources, ScenarioSource{
				Name:       fmt.Sprintf("%s-s%02d", label, j),
				Role:       RoleSpammer,
				Slot:       -1,
				Bloc:       bi,
				LeaveBatch: -1,
			})
			blocs[bi] = append(blocs[bi], blocMember{source: len(w.Sources) - 1})
		}
	}
	// Copiers. Their reliability feeds only the independent noise redraws;
	// it is drawn in the inaccurate band so noisy copies stay plausible.
	type copierState struct {
		source int
		cfg    CopierConfig
	}
	var copiers []copierState
	for gi, cp := range cfg.Copiers {
		n := cp.Count
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			w.Sources = append(w.Sources, ScenarioSource{
				Name:        fmt.Sprintf("copier%d-%02d", gi, j),
				Role:        RoleCopier,
				Slot:        cp.Leader,
				Bloc:        -1,
				Reliability: 0.5 + 0.2*rng.Float64(),
				FlipsAt:     -1,
				LeaveBatch:  -1,
			})
			copiers = append(copiers, copierState{source: len(w.Sources) - 1, cfg: cp})
		}
	}

	// relAt computes the effective reliability of a slot occupant at batch
	// b, applying decay (geometric pull toward 0.5 since the occupant
	// joined) and flips.
	relAt := func(s *ScenarioSource, base float64, b int) float64 {
		rel := base
		if s.FlipsAt >= 0 && b >= s.FlipsAt {
			rel = 1 - base
		}
		if s.Decays {
			age := b - s.JoinBatch
			rel = 0.5 + (rel-0.5)*math.Pow(cfg.Drift.Decay, float64(age))
		}
		return rel
	}

	correct := func(l truth.Label) truth.Vote {
		if l == truth.True {
			return truth.Affirm
		}
		return truth.Deny
	}
	wrong := func(l truth.Label) truth.Vote {
		if l == truth.True {
			return truth.Deny
		}
		return truth.Affirm
	}

	targeted := make([]bool, len(cfg.Blocs))
	leaderVote := make(map[int]truth.Vote, cfg.HonestSources) // slot -> vote on current fact
	for b := 0; b < cfg.Batches; b++ {
		// Churn between batches: each non-leader honest slot is re-occupied
		// with probability ChurnRate. Draw order is slot order, one uniform
		// per slot plus one reliability draw per replacement, independent of
		// any source's name.
		if b > 0 && cfg.ChurnRate > 0 {
			for i := range slots {
				if leaderSlot[i] {
					continue
				}
				if rng.Float64() < cfg.ChurnRate {
					w.Sources[slots[i].source].LeaveBatch = b
					src := ScenarioSource{
						Name:        fmt.Sprintf("honest%02d-gen%d", i, b),
						Role:        RoleHonest,
						Slot:        i,
						Bloc:        -1,
						Reliability: drawRel(),
						Decays:      i < cfg.Drift.DecaySources,
						FlipsAt:     -1,
						JoinBatch:   b,
						LeaveBatch:  -1,
					}
					if i >= cfg.Drift.DecaySources && i < cfg.Drift.DecaySources+cfg.Drift.FlipSources {
						src.FlipsAt = cfg.Drift.FlipAt
					}
					slots[i] = slotState{source: len(w.Sources), rel: src.Reliability}
					w.Sources = append(w.Sources, src)
				}
			}
		}
		batch := ScenarioBatch{Leaders: make(map[string]string, len(copiers))}
		for _, cp := range copiers {
			batch.Leaders[w.Sources[cp.source].Name] = w.Sources[slots[cp.cfg.Leader].source].Name
		}
		for f := 0; f < cfg.FactsPerBatch; f++ {
			name := fmt.Sprintf("b%03d-f%05d", b, f)
			label := truth.False
			if rng.Float64() < cfg.TruthRate {
				label = truth.True
			}
			w.Truth[name] = label
			batch.Facts = append(batch.Facts, name)
			// One coordination draw per bloc: the attack decision is shared
			// by every member — that is what makes the bloc a bloc.
			for bi, bl := range cfg.Blocs {
				targeted[bi] = rng.Float64() < bl.Strength
			}
			// Honest slots, in slot order.
			for i := range slots {
				src := &w.Sources[slots[i].source]
				leaderVote[i] = truth.Absent
				if rng.Float64() >= cfg.Coverage {
					continue
				}
				v := wrong(label)
				if rng.Float64() < relAt(src, slots[i].rel, b) {
					v = correct(label)
				}
				leaderVote[i] = v
				batch.Votes = append(batch.Votes, ScenarioVote{Fact: name, Source: src.Name, Vote: v})
			}
			// Spammer blocs: the fixed wrong answer on attacked facts,
			// independent camouflage elsewhere.
			for bi := range blocs {
				for _, m := range blocs[bi] {
					if targeted[bi] {
						batch.Votes = append(batch.Votes, ScenarioVote{
							Fact: name, Source: w.Sources[m.source].Name, Vote: wrong(label)})
						continue
					}
					if cfg.Blocs[bi].Camouflage > 0 && rng.Float64() < cfg.Coverage*cfg.Blocs[bi].Camouflage {
						batch.Votes = append(batch.Votes, ScenarioVote{
							Fact: name, Source: w.Sources[m.source].Name, Vote: correct(label)})
					}
				}
			}
			// Copiers: replicate the leader's vote (absence included), or
			// redraw independently with probability Noise.
			for _, cp := range copiers {
				src := &w.Sources[cp.source]
				v := leaderVote[cp.cfg.Leader]
				if cp.cfg.Noise > 0 && rng.Float64() < cp.cfg.Noise {
					v = truth.Absent
					if rng.Float64() < cfg.Coverage {
						v = wrong(label)
						if rng.Float64() < src.Reliability {
							v = correct(label)
						}
					}
				}
				if v != truth.Absent {
					batch.Votes = append(batch.Votes, ScenarioVote{Fact: name, Source: src.Name, Vote: v})
				}
			}
		}
		w.Batches = append(w.Batches, batch)
	}
	return w, nil
}

// Dataset flattens the scenario into one labeled dataset (facts in batch
// order, sources in first-vote order), the substrate one-shot corroborators
// run on in the robustness benchmark. Every fact is labeled, so the
// standard metrics evaluate over the full world.
func (w *ScenarioWorld) Dataset() *truth.Dataset {
	b := truth.NewBuilder()
	for _, batch := range w.Batches {
		for _, name := range batch.Facts {
			f := b.Fact(name)
			b.Label(f, w.Truth[name])
		}
		for _, v := range batch.Votes {
			b.Vote(b.Fact(v.Fact), b.Source(v.Source), v.Vote)
		}
	}
	return b.Build()
}

// CopierPairs returns the ground-truth (copier, leader) name pairs of batch
// i, sorted by copier name — the positives internal/depend's detection
// tests must recover.
func (w *ScenarioWorld) CopierPairs(i int) [][2]string {
	batch := &w.Batches[i]
	out := make([][2]string, 0, len(batch.Leaders))
	for copier, leader := range batch.Leaders {
		out = append(out, [2]string{copier, leader})
	}
	// map iteration order is random; sort for determinism.
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// AdversarialSources counts the spammers and copiers of the scenario.
func (w *ScenarioWorld) AdversarialSources() int {
	n := 0
	for _, s := range w.Sources {
		if s.Role != RoleHonest {
			n++
		}
	}
	return n
}
