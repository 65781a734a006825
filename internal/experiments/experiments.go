// Package experiments regenerates every table and figure of Wu & Marian
// (EDBT 2014, §6) on the repository's simulated substrates. Each runner
// returns a structured Table that renders as aligned text; cmd/experiments
// exposes them on the command line and bench_test.go wraps them in
// benchmarks.
//
// EXPERIMENTS.md records, for every experiment, the paper's numbers next to
// the numbers these runners produce and discusses the deviations.
package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"corroborate/internal/baseline"
	"corroborate/internal/bayes"
	"corroborate/internal/core"
	"corroborate/internal/depend"
	"corroborate/internal/engine"
	"corroborate/internal/hubdub"
	"corroborate/internal/metrics"
	"corroborate/internal/ml"
	"corroborate/internal/restaurant"
	"corroborate/internal/synth"
	"corroborate/internal/truth"
)

// Table is one reproduced table or figure: a header, rows of cells, and
// free-form notes.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// WriteCSV writes the table as comma-separated data (header row first),
// convenient for external plotting of the figures.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = pad(c, w)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Options configures the runners.
type Options struct {
	// Seed drives every simulated substrate; runs are deterministic for a
	// fixed seed. The default experiments use seed 2.
	Seed int64
	// Quick shrinks the worlds (~1/20 of the paper's sizes) so the whole
	// suite runs in seconds; used by tests and quick benchmarks.
	Quick bool
	// Ctx, when non-nil, cancels every corroboration run at its next
	// driver round boundary (cmd/experiments wires SIGINT here).
	Ctx context.Context
	// MaxIter and Tolerance, when non-nil, override each method's
	// iteration defaults via engine.Options — explicit zero is honoured.
	MaxIter   *int
	Tolerance *float64
	// Figure2Samples is how many evenly spaced trajectory points Figure2
	// renders per strategy; 0 means the paper-shaped default of 20.
	Figure2Samples int
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 2
	}
	return o.Seed
}

func (o Options) figure2Samples() int {
	if o.Figure2Samples <= 0 {
		return 20
	}
	return o.Figure2Samples
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// engineOpts carries only the iteration knobs; seeding stays with each
// method's constructor so the per-method seed offsets are preserved.
func (o Options) engineOpts() engine.Options {
	return engine.Options{MaxIter: o.MaxIter, Tolerance: o.Tolerance}
}

// run executes one method under the shared engine runtime with the
// options' iteration and cancellation settings.
func (o Options) run(m engine.Method, d *truth.Dataset) (*truth.Result, error) {
	return m.RunWith(o.ctx(), d, o.engineOpts())
}

// methodSuite returns the Table 4/5/6 method roster in presentation order.
func methodSuite(seed int64) []engine.Method {
	return []engine.Method{
		baseline.Voting{},
		baseline.Counting{},
		&bayes.Estimate{Seed: seed},
		&baseline.TwoEstimate{},
		ml.MLSVM{Seed: seed},
		ml.MLLogistic{Seed: seed},
		core.NewPS(),
		core.NewHeu(),
		core.NewScale(),
	}
}

func fmtF(x float64) string { return fmt.Sprintf("%.2f", x) }

// evalParallel runs every method over the dataset concurrently and returns
// the reports in input order. Each method is independent, so the
// parallelism changes nothing but wall-clock time. The per-method scoring
// (metrics.Evaluate) is itself an operator composition — golden stream ⋈
// predictions, aggregated into the confusion matrix — so this function is
// only the fan-out; no per-table loop materializes intermediate slices.
func evalParallel(o Options, d *truth.Dataset, methods []engine.Method) ([]metrics.Report, error) {
	reports := make([]metrics.Report, len(methods))
	errs := make([]error, len(methods))
	var wg sync.WaitGroup
	for i, m := range methods {
		wg.Add(1)
		go func(i int, m engine.Method) {
			defer wg.Done()
			r, err := o.run(m, d)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", m.Name(), err)
				return
			}
			reports[i] = metrics.Evaluate(d, r)
			reports[i].Method = m.Name()
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reports, nil
}

// restaurantWorld builds the §6.2 substrate for the options.
func restaurantWorld(o Options) (*restaurant.World, error) {
	cfg := restaurant.Config{Seed: o.seed()}
	if o.Quick {
		cfg.Listings = 2500
		cfg.GoldenSize = 300
		cfg.GoldenTrue = 170
	}
	return restaurant.Generate(cfg)
}

// Table1 prints the motivating example's vote matrix.
func Table1(o Options) (*Table, error) {
	d := truth.MotivatingExample()
	t := &Table{
		ID:     "Table 1",
		Title:  "the motivating scenario: 5 sources and 12 restaurants",
		Header: append(append([]string{"fact"}, d.SourceNames()...), "correct value"),
	}
	for f := 0; f < d.NumFacts(); f++ {
		row := []string{d.FactName(f)}
		for s := 0; s < d.NumSources(); s++ {
			row = append(row, d.Vote(f, s).String())
		}
		row = append(row, d.Label(f).String())
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table2 reproduces the strategy comparison on the motivating example.
func Table2(o Options) (*Table, error) {
	d := truth.MotivatingExample()
	t := &Table{
		ID:     "Table 2",
		Title:  "results of the strategies on the motivating example",
		Header: []string{"method", "precision", "recall", "accuracy"},
		Notes: []string{
			"paper: TwoEstimate 0.64/1/0.67, BayesEstimate 0.58/1/0.58, our strategy 0.78/1/0.83",
		},
	}
	for _, m := range []engine.Method{&baseline.TwoEstimate{}, &bayes.Estimate{Seed: o.seed()}, core.NewHeu()} {
		r, err := o.run(m, d)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on Table 1: %w", m.Name(), err)
		}
		rep := metrics.Evaluate(d, r)
		t.Rows = append(t.Rows, []string{m.Name(), fmtF(rep.Precision), fmtF(rep.Recall), fmtF(rep.Accuracy)})
	}
	return t, nil
}

// Table3 reports source coverage, overlap, and golden-set accuracy of the
// simulated restaurant crawl.
func Table3(o Options) (*Table, error) {
	w, err := restaurantWorld(o)
	if err != nil {
		return nil, err
	}
	st := truth.ComputeStats(w.Dataset)
	names := w.Dataset.SourceNames()
	t := &Table{
		ID:     "Table 3",
		Title:  "source coverage, overlap and accuracy (simulated crawl)",
		Header: append([]string{"measure", "source"}, names...),
	}
	cov := []string{"coverage", ""}
	for s := range names {
		cov = append(cov, fmtF(st.Coverage[s]))
	}
	t.Rows = append(t.Rows, cov)
	for s, n := range names {
		row := []string{"overlap", n}
		for u := range names {
			row = append(row, fmtF(st.Overlap[s][u]))
		}
		t.Rows = append(t.Rows, row)
	}
	acc := []string{"accuracy", ""}
	for s := range names {
		acc = append(acc, fmtF(st.Accuracy[s]))
	}
	t.Rows = append(t.Rows, acc)
	targets := []string{"paper targets: coverage .59/.24/.20/.07/.50/.35",
		"paper targets: accuracy .59/.78/.93/.96/.62/.84"}
	t.Notes = append(t.Notes, targets...)
	return t, nil
}

// Table4 compares all methods on the restaurant golden set.
func Table4(o Options) (*Table, error) {
	w, err := restaurantWorld(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Table 4",
		Title:  "result of the (simulated) real-world dataset",
		Header: []string{"method", "precision", "recall", "accuracy", "F-1", "TN"},
		Notes: []string{
			"paper: Voting .65/1/.66, Counting .94/.65/.76, BayesEstimate .63/1/.67, TwoEstimate .65/1/.66,",
			"paper: ML-SVM .98/.74/.77, ML-Logistic .86/.85/.82, IncEstPS .66/1/.68, IncEstHeu .86/.86/.83 (141 TN)",
		},
	}
	reports, err := evalParallel(o, w.Dataset, methodSuite(o.seed()))
	if err != nil {
		return nil, fmt.Errorf("experiments: Table 4: %w", err)
	}
	for _, rep := range reports {
		t.Rows = append(t.Rows, []string{
			rep.Method, fmtF(rep.Precision), fmtF(rep.Recall), fmtF(rep.Accuracy), fmtF(rep.F1),
			fmt.Sprintf("%d", rep.Confusion.TN),
		})
	}
	return t, nil
}

// Table5 reports corroborated trust scores and their MSE against the
// golden-set source accuracy.
func Table5(o Options) (*Table, error) {
	w, err := restaurantWorld(o)
	if err != nil {
		return nil, err
	}
	st := truth.ComputeStats(w.Dataset)
	names := w.Dataset.SourceNames()
	t := &Table{
		ID:     "Table 5",
		Title:  "the mean square error of trust score",
		Header: append(append([]string{"method"}, names...), "MSE"),
		Notes: []string{
			"paper MSE: TwoEstimate .063, BayesEstimate .066, ML-Logistic .004, IncEstHeu .005",
		},
	}
	ref := []string{"source accuracy"}
	for s := range names {
		ref = append(ref, fmtF(st.Accuracy[s]))
	}
	t.Rows = append(t.Rows, append(ref, "-"))
	for _, m := range []engine.Method{&baseline.TwoEstimate{}, &bayes.Estimate{Seed: o.seed()}, ml.MLLogistic{Seed: o.seed()}, core.NewHeu(), core.NewScale()} {
		r, err := o.run(m, w.Dataset)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s for Table 5: %w", m.Name(), err)
		}
		trust := r.Trust
		if m.Name() == "ML-Logistic" {
			// The classifier does not output source trust; derive it the
			// way the paper does, from the per-source agreement with the
			// classifier's golden-set predictions.
			trust = trustFromPredictions(w.Dataset, r)
		}
		row := []string{m.Name()}
		for s := range names {
			row = append(row, fmtF(trust[s]))
		}
		row = append(row, fmt.Sprintf("%.3f", metrics.TrustMSE(st.Accuracy, trust)))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// trustFromPredictions computes per-source trust as the share of each
// source's golden-set votes that agree with the result's predictions.
func trustFromPredictions(d *truth.Dataset, r *truth.Result) []float64 {
	golden := make([]bool, d.NumFacts())
	d.EachGolden(func(f int) bool {
		golden[f] = true
		return true
	})
	trust := make([]float64, d.NumSources())
	for s := range trust {
		agree, total := 0, 0
		for _, fv := range d.VotesBySource(s) {
			if !golden[fv.Fact] {
				continue
			}
			total++
			pred := r.Predictions[fv.Fact]
			if (fv.Vote == truth.Affirm && pred == truth.True) || (fv.Vote == truth.Deny && pred == truth.False) {
				agree++
			}
		}
		if total > 0 {
			trust[s] = float64(agree) / float64(total)
		} else {
			trust[s] = 0.5
		}
	}
	return trust
}

// Table6 measures the wall-clock cost of every method on the restaurant
// world (the ordering, not the 2012 hardware's absolute seconds, is the
// reproducible quantity).
func Table6(o Options) (*Table, error) {
	w, err := restaurantWorld(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Table 6",
		Title:  "time cost of various algorithms",
		Header: []string{"method", "time"},
		Notes: []string{
			"paper (2012 hardware): Voting .60s, Counting .61s, BayesEstimate 7.38s, TwoEstimate .69s,",
			"paper: ML-SMO .99s, ML-Logistic .91s, IncEstPS 1.13s, IncEstHeu 1.15s",
		},
	}
	for _, m := range methodSuite(o.seed()) {
		start := time.Now()
		if _, err := o.run(m, w.Dataset); err != nil {
			return nil, fmt.Errorf("experiments: timing %s: %w", m.Name(), err)
		}
		t.Rows = append(t.Rows, []string{m.Name(), time.Since(start).Round(time.Millisecond).String()})
	}
	return t, nil
}

// Table7 reports the error counts on the simulated Hubdub snapshot.
func Table7(o Options) (*Table, error) {
	cfg := hubdub.Config{Seed: o.seed()}
	if o.Quick {
		cfg.Questions = 60
		cfg.Users = 120
		cfg.TargetAnswers = 140
	}
	w, err := hubdub.Generate(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Table 7",
		Title:  "results over the (simulated) Hubdub dataset",
		Header: []string{"method", "errors"},
		Notes: []string{
			"paper: Voting 292, Counting 327, TwoEstimate 269, ThreeEstimate 270, IncEstHeu 262",
		},
	}
	methods := []engine.Method{
		baseline.Voting{},
		baseline.Counting{},
		&baseline.TwoEstimate{},
		&baseline.ThreeEstimate{},
		&core.IncEstimate{Strategy: core.SelectScale, DeferBand: 0.12, SoftAbsorb: true},
	}
	for _, m := range methods {
		r, err := o.run(m, w.Dataset)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on Hubdub: %w", m.Name(), err)
		}
		t.Rows = append(t.Rows, []string{m.Name(), fmt.Sprintf("%d", w.Errors(r))})
	}
	return t, nil
}

// Figure2 tabulates the multi-value trust trajectories of IncEstPS and
// IncEstScale on the restaurant world (a textual rendering of the paper's
// two plots), sampling up to 20 evenly spaced time points per strategy.
func Figure2(o Options) (*Table, error) {
	w, err := restaurantWorld(o)
	if err != nil {
		return nil, err
	}
	names := w.Dataset.SourceNames()
	t := &Table{
		ID:     "Figure 2",
		Title:  "multi-value trust score at each time point",
		Header: append([]string{"strategy", "t"}, names...),
		Notes: []string{
			"paper: under IncEstPS all trust scores stay at ~1 until the F-vote facts are reached;",
			"paper: under the incremental heuristic the two laggards dip below 0.5 and later recover",
		},
	}
	for _, e := range []*core.IncEstimate{core.NewPS(), core.NewScale()} {
		run, err := e.RunDetailedWith(o.ctx(), w.Dataset, o.engineOpts())
		if err != nil {
			return nil, fmt.Errorf("experiments: %s trajectory: %w", e.Name(), err)
		}
		n := len(run.Trajectory)
		step := n / o.figure2Samples()
		if step == 0 {
			step = 1
		}
		for i := 0; i < n; i += step {
			row := []string{e.Name(), fmt.Sprintf("%d", i)}
			for s := range names {
				row = append(row, fmtF(run.Trajectory[i].Trust[s]))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// figure3Methods is the roster the paper plots in Figure 3.
func figure3Methods(seed int64) []engine.Method {
	return []engine.Method{
		core.NewScale(),
		&baseline.TwoEstimate{},
		&bayes.Estimate{Seed: seed},
		baseline.Counting{},
		baseline.Voting{},
	}
}

func synthAccuracy(o Options, cfg synth.Config, m engine.Method) (float64, error) {
	w, err := synth.Generate(cfg)
	if err != nil {
		return 0, err
	}
	r, err := o.run(m, w.Dataset)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", m.Name(), err)
	}
	return metrics.Evaluate(w.Dataset, r).Accuracy, nil
}

func figure3(o Options, id, title, xName string, xs []string, cfgs []synth.Config) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{xName},
		Notes: []string{
			"paper shape: the incremental estimator clearly outperforms every other method,",
			"which stay nearly flat around the majority-class accuracy",
		},
	}
	methods := figure3Methods(o.seed())
	for _, m := range methods {
		t.Header = append(t.Header, m.Name())
	}
	type cell struct {
		acc float64
		err error
	}
	cells := make([][]cell, len(xs))
	var wg sync.WaitGroup
	for i := range xs {
		cells[i] = make([]cell, len(methods))
		for j := range methods {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				acc, err := synthAccuracy(o, cfgs[i], methods[j])
				cells[i][j] = cell{acc: acc, err: err}
			}(i, j)
		}
	}
	wg.Wait()
	for i, x := range xs {
		row := []string{x}
		for j := range methods {
			if cells[i][j].err != nil {
				return nil, fmt.Errorf("experiments: %s at %s=%s: %w", id, xName, x, cells[i][j].err)
			}
			row = append(row, fmtF(cells[i][j].acc))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (o Options) synthFacts() int {
	if o.Quick {
		return 2000
	}
	return 20000
}

// Figure3a sweeps the total number of sources with 2 inaccurate ones.
func Figure3a(o Options) (*Table, error) {
	var xs []string
	var cfgs []synth.Config
	for total := 3; total <= 11; total += 2 {
		xs = append(xs, fmt.Sprintf("%d", total))
		cfgs = append(cfgs, synth.Config{
			Facts:             o.synthFacts(),
			AccurateSources:   total - 2,
			InaccurateSources: 2,
			Seed:              o.seed(),
		})
	}
	return figure3(o, "Figure 3(a)", "accuracy vs number of sources (2 inaccurate)", "sources", xs, cfgs)
}

// Figure3b sweeps the number of inaccurate sources with 10 total.
func Figure3b(o Options) (*Table, error) {
	var xs []string
	var cfgs []synth.Config
	for inacc := 0; inacc <= 9; inacc += 3 {
		xs = append(xs, fmt.Sprintf("%d", inacc))
		cfgs = append(cfgs, synth.Config{
			Facts:             o.synthFacts(),
			AccurateSources:   10 - inacc,
			InaccurateSources: inacc,
			Seed:              o.seed(),
		})
	}
	return figure3(o, "Figure 3(b)", "accuracy vs number of inaccurate sources (10 total)", "inaccurate", xs, cfgs)
}

// Figure3c sweeps the share η of facts with F votes.
func Figure3c(o Options) (*Table, error) {
	var xs []string
	var cfgs []synth.Config
	for _, eta := range []float64{0.01, 0.02, 0.03, 0.04, 0.05} {
		xs = append(xs, fmt.Sprintf("%.2f", eta))
		cfgs = append(cfgs, synth.Config{
			Facts:             o.synthFacts(),
			AccurateSources:   8,
			InaccurateSources: 2,
			Eta:               eta,
			Seed:              o.seed(),
		})
	}
	return figure3(o, "Figure 3(c)", "accuracy vs percentage of statements with F votes", "eta", xs, cfgs)
}

// Extended compares the related-work methods (TruthFinder, the Pasternack
// & Roth family, dependence-aware voting, naive Bayes) on the restaurant
// world — methods outside the paper's Table 4 roster that round out the
// suite.
func Extended(o Options) (*Table, error) {
	w, err := restaurantWorld(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Extended",
		Title:  "related-work methods on the restaurant world",
		Header: []string{"method", "precision", "recall", "accuracy", "F-1", "TN"},
	}
	methods := []engine.Method{
		&baseline.ThreeEstimate{},
		&baseline.TruthFinder{},
		baseline.AvgLog{},
		baseline.Invest{},
		baseline.PooledInvest{},
		depend.Voting{},
		ml.MLNaiveBayes{Seed: o.seed()},
	}
	reports, err := evalParallel(o, w.Dataset, methods)
	if err != nil {
		return nil, fmt.Errorf("experiments: Extended: %w", err)
	}
	for _, rep := range reports {
		t.Rows = append(t.Rows, []string{
			rep.Method, fmtF(rep.Precision), fmtF(rep.Recall), fmtF(rep.Accuracy), fmtF(rep.F1),
			fmt.Sprintf("%d", rep.Confusion.TN),
		})
	}
	return t, nil
}

// Seeds sweeps the restaurant world across five seeds for the headline
// methods, quantifying the simulator's run-to-run variability (the paper
// had one fixed crawl; our substitute is stochastic, so EXPERIMENTS.md
// reports ranges).
func Seeds(o Options) (*Table, error) {
	t := &Table{
		ID:     "Seeds",
		Title:  "seed sensitivity of the restaurant-world results",
		Header: []string{"seed", "method", "precision", "recall", "accuracy", "TN"},
	}
	for seed := int64(1); seed <= 5; seed++ {
		cfg := restaurant.Config{Seed: seed}
		if o.Quick {
			cfg.Listings = 2500
			cfg.GoldenSize = 300
			cfg.GoldenTrue = 170
		}
		w, err := restaurant.Generate(cfg)
		if err != nil {
			return nil, err
		}
		reports, err := evalParallel(o, w.Dataset, []engine.Method{
			baseline.Voting{}, &baseline.TwoEstimate{}, core.NewScale(),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: seeds sweep: %w", err)
		}
		for _, rep := range reports {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", seed), rep.Method,
				fmtF(rep.Precision), fmtF(rep.Recall), fmtF(rep.Accuracy),
				fmt.Sprintf("%d", rep.Confusion.TN),
			})
		}
	}
	return t, nil
}

// Ablation reports the design-choice ablations DESIGN.md calls out: the
// selection strategy, the deferral band, soft absorption, and the default
// trust, all on the restaurant world.
func Ablation(o Options) (*Table, error) {
	w, err := restaurantWorld(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation",
		Title:  "design-choice ablations on the restaurant world",
		Header: []string{"variant", "precision", "recall", "accuracy", "TN"},
	}
	variants := []struct {
		name string
		e    *core.IncEstimate
	}{
		{"IncEstHeu (literal ∆H)", core.NewHeu()},
		{"IncEstHeu flipped ∆H", &core.IncEstimate{Strategy: core.SelectHeu, FlipDeltaH: true}},
		{"IncEstHeu full groups", &core.IncEstimate{Strategy: core.SelectHeu, FullGroups: true}},
		{"IncEstHybrid", &core.IncEstimate{Strategy: core.SelectHybrid}},
		{"IncEstScale", core.NewScale()},
		{"IncEstScale no defer band", &core.IncEstimate{Strategy: core.SelectScale}},
		{"IncEstScale soft absorb", &core.IncEstimate{Strategy: core.SelectScale, DeferBand: 0.12, SoftAbsorb: true}},
		{"IncEstScale default 0.7", &core.IncEstimate{Strategy: core.SelectScale, DeferBand: 0.12, InitialTrust: 0.7}},
		{"IncEstPS", core.NewPS()},
	}
	for _, v := range variants {
		r, err := o.run(v.e, w.Dataset)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", v.name, err)
		}
		rep := metrics.Evaluate(w.Dataset, r)
		t.Rows = append(t.Rows, []string{
			v.name, fmtF(rep.Precision), fmtF(rep.Recall), fmtF(rep.Accuracy),
			fmt.Sprintf("%d", rep.Confusion.TN),
		})
	}
	return t, nil
}

// Runner is a named experiment.
type Runner struct {
	Name string
	Run  func(Options) (*Table, error)
}

// Runners lists every experiment in paper order.
func Runners() []Runner {
	return []Runner{
		{"table1", Table1},
		{"table2", Table2},
		{"table3", Table3},
		{"table4", Table4},
		{"table5", Table5},
		{"table6", Table6},
		{"table7", Table7},
		{"figure2", Figure2},
		{"figure3a", Figure3a},
		{"figure3b", Figure3b},
		{"figure3c", Figure3c},
		{"extended", Extended},
		{"seeds", Seeds},
		{"ablation", Ablation},
		{"robustness", Robustness},
	}
}

// Names returns the runner names, sorted.
func Names() []string {
	rs := Runners()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	sort.Strings(out)
	return out
}

// ByName finds a runner.
func ByName(name string) (Runner, bool) {
	for _, r := range Runners() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

// RunAll executes every experiment and renders it to w.
func RunAll(o Options, w io.Writer) error {
	for _, r := range Runners() {
		t, err := r.Run(o)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", r.Name, err)
		}
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}
