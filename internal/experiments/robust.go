package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"corroborate/internal/baseline"
	"corroborate/internal/bayes"
	"corroborate/internal/core"
	"corroborate/internal/depend"
	"corroborate/internal/engine"
	"corroborate/internal/ml"
	"corroborate/internal/pipeline"
	"corroborate/internal/synth"
	"corroborate/internal/truth"
)

// Robustness benchmark: accuracy under attack. The survey literature (Li et
// al., "A Survey on Truth Discovery"; Waguih & Berti-Équille's experimental
// evaluation) shows method rankings invert under spammer-heavy and
// copy-heavy regimes — exactly the regimes the paper's independent-error
// assumption excludes. This harness sweeps every method over a grid of
// x% adversarial sources × y batches of the seeded synth scenario model
// (coordinated spammer blocs, copiers, a mid-stream reliability flip, mild
// churn) so perf PRs can't silently trade away correctness under attack.

// RobustnessCell is one (method, adversarial fraction, batch count) sample.
type RobustnessCell struct {
	Method string `json:"method"`
	// Fraction is the share of sources that are adversarial (spammer-bloc
	// members plus copiers).
	Fraction float64 `json:"adversarial_fraction"`
	// Batches is the number of arrival batches the scenario spans.
	Batches int `json:"batches"`
	// Accuracy is the prediction accuracy over the scenario's labeled facts
	// (offline methods decide the flattened union; stream rows decide batch
	// by batch at arrival time).
	Accuracy float64 `json:"accuracy"`
}

// RobustnessReport is the machine-readable robustness grid that lands in
// BENCH_3.json: fully reproducible from the seed.
type RobustnessReport struct {
	Seed      int64            `json:"seed"`
	Sources   int              `json:"sources"`
	FactsPer  int              `json:"facts_per_batch"`
	Fractions []float64        `json:"fractions"`
	Batches   []int            `json:"batches"`
	Cells     []RobustnessCell `json:"cells"`
}

// robustnessMethods mirrors the full method registry (presentation order)
// plus the dependence-aware voter, which the copier regime exists to test.
func robustnessMethods(seed int64) []engine.Method {
	return []engine.Method{
		baseline.Voting{},
		baseline.Counting{},
		&bayes.Estimate{Seed: seed},
		&baseline.TwoEstimate{},
		&baseline.ThreeEstimate{},
		&baseline.TruthFinder{},
		baseline.AvgLog{},
		baseline.Invest{},
		baseline.PooledInvest{},
		ml.MLSVM{Seed: seed},
		ml.MLLogistic{Seed: seed},
		ml.MLNaiveBayes{Seed: seed},
		core.NewPS(),
		core.NewHeu(),
		core.NewScale(),
		depend.Voting{},
	}
}

// robustnessStreamDecay is the λ the decayed stream row runs with.
const robustnessStreamDecay = 0.6

// robustnessTotalSources is the roster size every grid cell draws from.
const robustnessTotalSources = 12

func (o Options) robustnessFractions() []float64 { return []float64{0, 0.25, 0.5} }

func (o Options) robustnessBatches() []int {
	if o.Quick {
		return []int{2, 3, 4}
	}
	return []int{2, 4, 8}
}

func (o Options) robustnessFactsPerBatch() int {
	if o.Quick {
		return 40
	}
	return 150
}

// robustnessScenario builds the attack world of one grid cell: the
// adversarial fraction splits into a coordinated spammer bloc and copiers
// of an honest leader, one honest source flips reliability mid-stream, and
// mild churn rotates the honest roster.
func (o Options) robustnessScenario(fraction float64, batches int) (*synth.ScenarioWorld, error) {
	adv := int(fraction*robustnessTotalSources + 0.5)
	spammers := (adv + 1) / 2
	copiers := adv - spammers
	honest := robustnessTotalSources - adv
	cfg := synth.ScenarioConfig{
		Batches:       batches,
		FactsPerBatch: o.robustnessFactsPerBatch(),
		HonestSources: honest,
		ChurnRate:     0.1,
		Seed:          o.seed(),
	}
	if spammers > 0 {
		cfg.Blocs = []synth.BlocConfig{{Label: "bloc", Sources: spammers, Strength: 0.5, Camouflage: 0.2}}
	}
	if copiers > 0 {
		cfg.Copiers = []synth.CopierConfig{{Leader: 0, Count: copiers, Noise: 0.15}}
	}
	if honest >= 4 && batches >= 2 {
		cfg.Drift = synth.DriftConfig{FlipSources: 1, FlipAt: batches / 2}
	}
	return synth.GenerateScenario(cfg)
}

// streamAccuracy replays the scenario through a decayed or undecayed
// sharded stream and scores the at-arrival decisions against the ground
// truth. The replay is an operator composition: the scenario's flattened
// vote stream, windowed back into its batches at the batch boundaries,
// each window mapped into the stream's ingest form and its decisions
// aggregated into the running score — no per-batch intermediate beyond
// the one window in flight.
func streamAccuracy(w *synth.ScenarioWorld, decay float64) (float64, error) {
	st := core.NewShardedStream(4)
	if err := st.SetTrustDecay(decay); err != nil {
		return 0, err
	}
	type score struct {
		right, total int
	}
	var sc score
	var err error
	batches := pipeline.KeyWindows(pipeline.FromScenario(w),
		func(r pipeline.ScenarioRow) int { return r.Batch })
	batches(func(win []pipeline.ScenarioRow) bool {
		votes := pipeline.Collect(pipeline.Map(pipeline.FromSlice(win),
			func(r pipeline.ScenarioRow) core.BatchVote {
				return core.BatchVote{Fact: r.Vote.Fact, Source: r.Vote.Source, Vote: r.Vote.Vote}
			}))
		out, aerr := st.AddBatch(votes)
		if aerr != nil {
			err = fmt.Errorf("batch %d: %w", win[0].Batch, aerr)
			return false
		}
		sc = pipeline.Aggregate(pipeline.FromSlice(out), sc, func(s score, sf core.StreamFact) score {
			s.total++
			if (sf.Prediction == truth.True) == (w.Truth[sf.Name] == truth.True) {
				s.right++
			}
			return s
		})
		return true
	})
	if err != nil {
		return 0, err
	}
	if sc.total == 0 {
		return 0, fmt.Errorf("stream decided no facts")
	}
	return float64(sc.right) / float64(sc.total), nil
}

// RobustnessGrid computes the full accuracy-under-attack grid: every
// registered method plus the streaming engine with and without trust decay,
// at every (adversarial fraction, batch count) point.
func RobustnessGrid(o Options) (*RobustnessReport, error) {
	rep := &RobustnessReport{
		Seed:      o.seed(),
		Sources:   robustnessTotalSources,
		FactsPer:  o.robustnessFactsPerBatch(),
		Fractions: o.robustnessFractions(),
		Batches:   o.robustnessBatches(),
	}
	for _, fraction := range rep.Fractions {
		for _, batches := range rep.Batches {
			w, err := o.robustnessScenario(fraction, batches)
			if err != nil {
				return nil, fmt.Errorf("experiments: robustness scenario f=%v b=%d: %w", fraction, batches, err)
			}
			d := w.Dataset()
			reports, err := evalParallel(o, d, robustnessMethods(o.seed()))
			if err != nil {
				return nil, fmt.Errorf("experiments: robustness f=%v b=%d: %w", fraction, batches, err)
			}
			for _, r := range reports {
				rep.Cells = append(rep.Cells, RobustnessCell{
					Method: r.Method, Fraction: fraction, Batches: batches, Accuracy: r.Accuracy,
				})
			}
			for _, stream := range []struct {
				name  string
				decay float64
			}{
				{"IncEstScale-stream", 0},
				{fmt.Sprintf("IncEstScale-stream decay=%.1f", robustnessStreamDecay), robustnessStreamDecay},
			} {
				acc, err := streamAccuracy(w, stream.decay)
				if err != nil {
					return nil, fmt.Errorf("experiments: robustness %s f=%v b=%d: %w", stream.name, fraction, batches, err)
				}
				rep.Cells = append(rep.Cells, RobustnessCell{
					Method: stream.name, Fraction: fraction, Batches: batches, Accuracy: acc,
				})
			}
		}
	}
	return rep, nil
}

// Accuracy returns one cell's accuracy, or -1 if absent.
func (r *RobustnessReport) Accuracy(method string, fraction float64, batches int) float64 {
	for _, c := range r.Cells {
		//lint:ignore floatexact grid fractions are exact constants from robustnessFractions, stored and looked up unmodified; an epsilon could match two adjacent grid points
		if c.Method == method && c.Fraction == fraction && c.Batches == batches {
			return c.Accuracy
		}
	}
	return -1
}

// WriteJSON emits the report as deterministic, indented JSON.
func (r *RobustnessReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Robustness renders the grid as a table: one row per method, one column
// per (fraction × batches) point.
func Robustness(o Options) (*Table, error) {
	rep, err := RobustnessGrid(o)
	if err != nil {
		return nil, err
	}
	return rep.table(), nil
}

func (r *RobustnessReport) table() *Table {
	t := &Table{
		ID:     "Robustness",
		Title:  "accuracy under x% adversarial sources × y batches (spammer bloc + copiers + drift)",
		Header: []string{"method"},
		Notes: []string{
			fmt.Sprintf("seed %d; %d sources; %d facts/batch; adversaries split between a coordinated bloc (strength .5, camouflage .2) and copiers (noise .15); one honest source flips mid-stream",
				r.Seed, r.Sources, r.FactsPer),
		},
	}
	for _, f := range r.Fractions {
		for _, b := range r.Batches {
			t.Header = append(t.Header, fmt.Sprintf("%.0f%%x%db", 100*f, b))
		}
	}
	var methods []string
	seen := make(map[string]bool)
	for _, c := range r.Cells {
		if !seen[c.Method] {
			seen[c.Method] = true
			methods = append(methods, c.Method)
		}
	}
	for _, m := range methods {
		row := []string{m}
		for _, f := range r.Fractions {
			for _, b := range r.Batches {
				row = append(row, fmtF(r.Accuracy(m, f, b)))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// RobustnessMarkdown renders the grid as a GitHub-flavored markdown table —
// the generated robustness section of README.md (kept in sync by a test,
// like the registry table).
func RobustnessMarkdown(o Options) (string, error) {
	rep, err := RobustnessGrid(o)
	if err != nil {
		return "", err
	}
	t := rep.table()
	var b []byte
	b = append(b, '|')
	for _, h := range t.Header {
		b = append(b, ' ')
		b = append(b, h...)
		b = append(b, " |"...)
	}
	b = append(b, '\n', '|')
	for range t.Header {
		b = append(b, "---|"...)
	}
	b = append(b, '\n')
	for _, row := range t.Rows {
		b = append(b, '|')
		for _, cell := range row {
			b = append(b, ' ')
			b = append(b, cell...)
			b = append(b, " |"...)
		}
		b = append(b, '\n')
	}
	return string(b), nil
}
