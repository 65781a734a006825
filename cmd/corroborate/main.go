// Command corroborate runs a corroboration method over a vote dataset in
// CSV format and reports the corroborated facts, the estimated source
// trust, and — when the dataset carries ground-truth labels — the standard
// evaluation metrics.
//
// Usage:
//
//	corroborate -method IncEstHeu -in votes.csv [-out results.csv] [-trajectory]
//	corroborate -stream day1.csv,day2.csv [-shards 4] [-checkpoint state.json]
//
// The input format is one fact per row with one vote column per source
// ("T", "F", or "-"), plus optional "label" and "golden" columns; see the
// repository README for details and cmd/datagen for generators.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"corroborate"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "corroborate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	flags := flag.NewFlagSet("corroborate", flag.ContinueOnError)
	method := flags.String("method", "IncEstScale", "corroboration method (see -list)")
	in := flags.String("in", "", "input dataset (CSV, or JSON with -format json)")
	format := flags.String("format", "csv", "input format: csv or json")
	out := flags.String("out", "", "optional output CSV of per-fact results")
	jsonOut := flags.String("json", "", "optional output JSON of the full result")
	compare := flags.String("compare", "", "second method: evaluate both and report the significance of the accuracy gap")
	auditK := flags.Int("audit", 0, "plan this many in-person checks from the result (entropy-driven)")
	stream := flags.String("stream", "", "comma-separated CSV files treated as successive batches of an online corroboration stream")
	shards := flags.Int("shards", 1, "with -stream: corroborate each batch across this many signature shards (output is identical for any count)")
	checkpoint := flags.String("checkpoint", "", "with -stream: resume from this checkpoint file if it exists and rewrite it after every batch")
	decay := flags.Float64("decay", 0, "with -stream: per-batch exponential trust-decay factor in (0,1); evidence k batches old carries weight decay^k (0 or 1 disables)")
	list := flags.Bool("list", false, "list available methods and exit")
	trajectory := flags.Bool("trajectory", false, "print the incremental trust trajectory (IncEst* methods)")
	maxIter := flags.Int("maxiter", 0, "override the method's iteration/round cap (0 runs zero rounds; negative removes the cap)")
	tol := flags.Float64("tol", 0, "override the method's convergence tolerance (0 demands an exact fixpoint)")
	seed := flags.Int64("seed", 0, "override the RNG seed of seeded methods")
	if err := flags.Parse(args); err != nil {
		return err
	}

	// Pointer options distinguish an explicitly passed zero from an unset
	// flag, so only flags the user actually set override the defaults. The
	// decay factor is a stream setting, not a run option, so it travels
	// separately.
	var opts corroborate.RunOptions
	var streamDecay *float64
	flags.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "maxiter":
			opts.MaxIter = corroborate.OptInt(*maxIter)
		case "tol":
			opts.Tolerance = corroborate.OptFloat(*tol)
		case "seed":
			opts.Seed = corroborate.OptSeed(*seed)
		case "decay":
			streamDecay = decay
		}
	})
	// Validate the decay factor here, at flag-parse time: letting an
	// out-of-range λ ride into the stream meant the run died batches deep
	// (or, on a resumed checkpoint, with a misleading "conflict" error)
	// instead of before any file was touched. The comparison is written to
	// also reject NaN.
	if streamDecay != nil && !(*decay >= 0 && *decay <= 1) {
		return fmt.Errorf("-decay %v out of range: the per-batch trust-decay factor must be in [0,1] (0 or 1 disables decay)", *decay)
	}

	if *list {
		mark := func(v bool) byte {
			if v {
				return '*'
			}
			return '-'
		}
		fmt.Println("name                  iter seed paper                              description")
		for _, e := range corroborate.MethodInfos() {
			fmt.Printf("%-21s %c    %c    %-34s %s\n", e.Name, mark(e.Iterative), mark(e.Seeded), e.Paper, e.Doc)
		}
		return nil
	}
	if *stream != "" {
		return runStream(strings.Split(*stream, ","), *shards, *checkpoint, streamDecay)
	}
	if *in == "" {
		return fmt.Errorf("missing -in (use -list to see methods)")
	}
	m, err := corroborate.NewMethod(*method)
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM cancel at the next round boundary; a started round
	// always completes before the run aborts.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	var d *corroborate.Dataset
	switch *format {
	case "csv":
		d, err = corroborate.LoadCSV(*in)
	case "json":
		d, err = corroborate.LoadJSON(*in)
	default:
		return fmt.Errorf("unknown format %q (csv, json)", *format)
	}
	if err != nil {
		return err
	}
	fmt.Printf("dataset: %d facts, %d sources, %d votes (%.1f%% affirmative-only)\n",
		d.NumFacts(), d.NumSources(), d.NumVotes(), 100*d.AffirmativeShare())

	var result *corroborate.Result
	if inc, ok := m.(*corroborate.IncEstimate); ok && *trajectory {
		run, err := inc.RunDetailedWith(ctx, d, opts)
		if err != nil {
			return err
		}
		result = run.Result
		fmt.Println("\ntrust trajectory:")
		for i, tp := range run.Trajectory {
			fmt.Printf("t%-4d evaluated=%-6d trust=", i, len(tp.Evaluated))
			for s, tr := range tp.Trust {
				fmt.Printf("%s=%.2f ", d.SourceName(s), tr)
			}
			fmt.Println()
		}
	} else {
		result, err = m.RunWith(ctx, d, opts)
		if err != nil {
			return err
		}
	}

	trueCount := 0
	for _, p := range result.Predictions {
		if p == corroborate.True {
			trueCount++
		}
	}
	fmt.Printf("\n%s: %d facts true, %d false\n", m.Name(), trueCount, d.NumFacts()-trueCount)
	if result.Trust != nil {
		fmt.Println("source trust:")
		for s := 0; s < d.NumSources(); s++ {
			fmt.Printf("  %-20s %.3f\n", d.SourceName(s), result.Trust[s])
		}
	}
	if d.HasTruth() {
		rep := corroborate.Evaluate(d, result)
		fmt.Printf("evaluation (golden set of %d): precision=%.3f recall=%.3f accuracy=%.3f F1=%.3f (%s)\n",
			rep.Confusion.Evaluated(), rep.Precision, rep.Recall, rep.Accuracy, rep.F1, rep.Confusion.String())
		if iv, err := corroborate.BootstrapAccuracy(d, result, 2000, 0.95, 1); err == nil {
			fmt.Printf("accuracy 95%% bootstrap interval: %s\n", iv)
		}
	}
	if *compare != "" {
		other, err := corroborate.NewMethod(*compare)
		if err != nil {
			return err
		}
		otherResult, err := other.RunWith(ctx, d, opts)
		if err != nil {
			return err
		}
		if d.HasTruth() {
			repA := corroborate.Evaluate(d, result)
			repB := corroborate.Evaluate(d, otherResult)
			p := corroborate.SignificanceTest(d, result, otherResult, 10000, 1)
			fmt.Printf("\ncomparison: %s accuracy=%.3f vs %s accuracy=%.3f (paired permutation p=%.4f)\n",
				m.Name(), repA.Accuracy, other.Name(), repB.Accuracy, p)
		} else {
			agree := 0
			for f := range result.Predictions {
				if result.Predictions[f] == otherResult.Predictions[f] {
					agree++
				}
			}
			fmt.Printf("\ncomparison: %s and %s agree on %d/%d facts (no labels for significance)\n",
				m.Name(), other.Name(), agree, d.NumFacts())
		}
	}
	if *auditK > 0 {
		plan, err := corroborate.PlanAudit(d, result, *auditK, corroborate.AuditOptions{SkipLabeled: true})
		if err != nil {
			return err
		}
		if len(plan) == 0 {
			// Everything is already labeled; plan over the full dataset
			// (e.g. to prioritize re-verification).
			if plan, err = corroborate.PlanAudit(d, result, *auditK, corroborate.AuditOptions{}); err != nil {
				return err
			}
		}
		fmt.Printf("\naudit plan (%d checks, highest expected information first):\n", len(plan))
		for i, item := range plan {
			fmt.Printf("  %2d. %-40s gain=%.2f (signature shared by %d facts)\n",
				i+1, d.FactName(item.Fact), item.Gain, item.GroupSize)
		}
	}
	if *out != "" {
		if err := writeResults(*out, d, result); err != nil {
			return err
		}
		fmt.Println("per-fact results written to", *out)
	}
	if *jsonOut != "" {
		if err := writeResultJSON(*jsonOut, d, result); err != nil {
			return err
		}
		fmt.Println("result JSON written to", *jsonOut)
	}
	return nil
}

// runStream feeds each file's votes as one batch of an online stream and
// reports per-batch verdicts plus the carried trust. With a checkpoint
// path, the stream resumes from the file when it exists and durably
// rewrites it after every batch through the crash-safe sink, so an
// interrupted run continues exactly where it stopped (already-processed
// batches must be dropped from the argument list on resume; the batch
// counter in the output shows how far the restored stream had advanced).
// A corrupt checkpoint is quarantined to <path>.corrupt and the stream
// starts fresh. SIGINT/SIGTERM cancel between group decisions; the
// rejected batch leaves the stream at its last checkpointed boundary.
func runStream(paths []string, shards int, checkpointPath string, decay *float64) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	st := corroborate.NewShardedStream(shards)
	var sink *corroborate.CheckpointSink
	if checkpointPath != "" {
		sink = corroborate.NewCheckpointSink(checkpointPath)
		var report corroborate.RestoreReport
		var err error
		if st, report, err = sink.Restore(shards); err != nil {
			return err
		}
		if report.Cause != nil {
			fmt.Fprintf(os.Stderr,
				"corroborate: checkpoint %s is corrupt (%v); quarantined to %s, starting fresh\n",
				checkpointPath, report.Cause, strings.TrimSpace(report.QuarantinedPath+" "+report.QuarantinedLog))
		}
		if report.Resumed {
			fmt.Printf("resumed from %s: %d batches, %d facts already corroborated\n",
				checkpointPath, st.Batches(), len(st.Decided()))
		}
	}
	if decay != nil {
		// The decay factor is part of a stream's identity and travels in the
		// checkpoint: a fresh stream takes the flag, a resumed one must agree
		// with it.
		if err := st.SetTrustDecay(*decay); err != nil {
			return fmt.Errorf("checkpoint %s: %w (drop the flag or start a fresh stream)", checkpointPath, err)
		}
	}
	if d := st.TrustDecay(); d != 0 {
		fmt.Printf("trust decay: %v per batch\n", d)
	}
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		d, err := corroborate.LoadCSV(path)
		if err != nil {
			return err
		}
		votes := make([]corroborate.BatchVote, 0, d.NumVotes())
		for f := 0; f < d.NumFacts(); f++ {
			for _, sv := range d.VotesOnFact(f) {
				votes = append(votes, corroborate.BatchVote{
					Fact:   d.FactName(f),
					Source: d.SourceName(sv.Source),
					Vote:   sv.Vote,
				})
			}
		}
		out, err := st.AddBatchContext(ctx, votes)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("interrupted before %s; resume from the checkpoint and re-run the remaining batches: %w", path, err)
			}
			return fmt.Errorf("%s: %w", path, err)
		}
		confirmed := 0
		for _, sf := range out {
			if sf.Prediction == corroborate.True {
				confirmed++
			}
		}
		fmt.Printf("batch %s: %d facts (%d confirmed, %d rejected)\n",
			path, len(out), confirmed, len(out)-confirmed)
		if sink != nil {
			if err := sink.Save(st); err != nil {
				return fmt.Errorf("checkpointing after %s: %w", path, err)
			}
		}
	}
	fmt.Println("carried trust:")
	trust := st.Trust()
	names := make([]string, 0, len(trust))
	for name := range trust {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-20s %.3f\n", name, trust[name])
	}
	fmt.Printf("%d batches, %d facts total\n", st.Batches(), len(st.Decided()))
	return nil
}

func writeResultJSON(path string, d *corroborate.Dataset, r *corroborate.Result) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return corroborate.WriteResultJSON(f, d, r)
}

func writeResults(path string, d *corroborate.Dataset, r *corroborate.Result) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"fact", "probability", "prediction"}); err != nil {
		return err
	}
	for i := 0; i < d.NumFacts(); i++ {
		rec := []string{
			d.FactName(i),
			strconv.FormatFloat(r.FactProb[i], 'f', 6, 64),
			r.Predictions[i].String(),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
