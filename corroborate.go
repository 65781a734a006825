// Package corroborate is a Go implementation of corroboration
// (truth discovery) for the affirmative-statement regime, reproducing
// Wu & Marian, "Corroborating Facts from Affirmative Statements"
// (EDBT 2014).
//
// The problem: a set of sources cast affirmative (T), negative (F) or no
// votes over boolean facts; almost every fact has only affirmative votes,
// yet some are false (the stale-restaurant-listing scenario). The package
// provides the paper's incremental multi-value-trust corroborator
// (IncEstimate with the IncEstHeu and IncEstPS strategies, plus the
// scale-stabilized IncEstScale profile), all of the paper's comparison
// methods (Voting, Counting, TwoEstimate, ThreeEstimate, the Bayesian
// latent-truth model, SMO-trained SVM and logistic-regression classifiers),
// several related-work algorithms (TruthFinder, AvgLog, Invest,
// PooledInvest), evaluation metrics, dataset I/O, and generators for the
// paper's three evaluation substrates.
//
// Quick start:
//
//	b := corroborate.NewBuilder()
//	b.VoteNamed("dannys grand sea palace", "yellowpages", corroborate.Affirm)
//	b.VoteNamed("dannys grand sea palace", "citysearch", corroborate.Affirm)
//	b.VoteNamed("blue harbor grill", "menupages", corroborate.Affirm)
//	b.VoteNamed("old mill tavern", "menupages", corroborate.Deny)
//	b.VoteNamed("old mill tavern", "yellowpages", corroborate.Affirm)
//	d := b.Build()
//
//	result, err := corroborate.IncEstScale().RunWith(context.Background(), d, corroborate.RunOptions{})
//	if err != nil { ... }
//	for f := 0; f < d.NumFacts(); f++ {
//	    fmt.Println(d.FactName(f), result.Predictions[f], result.FactProb[f])
//	}
//
// See the examples directory for complete programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology.
package corroborate

import (
	"fmt"
	"strings"

	"corroborate/internal/baseline"
	"corroborate/internal/bayes"
	"corroborate/internal/core"
	"corroborate/internal/engine"
	"corroborate/internal/metrics"
	"corroborate/internal/ml"
	"corroborate/internal/truth"
)

// Core data model, re-exported from the internal packages.
type (
	// Vote is a single source's statement about a fact: Affirm, Deny, or
	// Absent.
	Vote = truth.Vote
	// Label is a fact's (possibly unknown) ground truth.
	Label = truth.Label
	// Dataset is an immutable sparse vote matrix; build one with Builder.
	Dataset = truth.Dataset
	// Builder accumulates sources, facts, votes and labels.
	Builder = truth.Builder
	// Result is a corroboration outcome: per-fact probabilities and
	// predictions plus per-source trust.
	Result = truth.Result
	// Method is any corroboration algorithm; RunWith is its one entry
	// point.
	Method = engine.Method
	// SourceVote is one (source, vote) entry of a fact's posting list.
	SourceVote = truth.SourceVote
	// Stats summarizes a dataset (coverage, overlap, accuracy).
	Stats = truth.Stats
	// Report bundles precision/recall/accuracy/F1 for one method.
	Report = metrics.Report
	// Confusion is a 2x2 confusion matrix.
	Confusion = metrics.Confusion
	// TimePoint is one round of the incremental algorithm (trust vector
	// plus evaluated facts) — the multi-value trust trajectory unit.
	TimePoint = core.TimePoint
	// IncRun is a detailed incremental run: the result plus its full
	// trust trajectory.
	IncRun = core.Run
	// IncEstimate is the paper's incremental corroborator with all of its
	// configuration knobs; the constructors below cover the common
	// profiles.
	IncEstimate = core.IncEstimate
)

// Vote and label values.
const (
	Absent  = truth.Absent
	Affirm  = truth.Affirm
	Deny    = truth.Deny
	Unknown = truth.Unknown
	True    = truth.True
	False   = truth.False
	// Threshold is the paper's decision threshold (Eq. 2).
	Threshold = truth.Threshold
)

// NewBuilder returns an empty dataset builder.
func NewBuilder() *Builder { return truth.NewBuilder() }

// LoadCSV reads a dataset from a CSV file (see internal/truth for the
// format: one fact per row, one vote column per source, optional label and
// golden columns).
func LoadCSV(path string) (*Dataset, error) { return truth.LoadCSV(path) }

// SaveCSV writes a dataset to a CSV file.
func SaveCSV(path string, d *Dataset) error { return truth.SaveCSV(path, d) }

// MotivatingExample returns the paper's Table 1 (5 sources, 12 restaurant
// facts, ground truth included).
func MotivatingExample() *Dataset { return truth.MotivatingExample() }

// ComputeStats derives Table 3-style statistics (coverage, overlap,
// golden-set accuracy) from a dataset.
func ComputeStats(d *Dataset) *Stats { return truth.ComputeStats(d) }

// Evaluate scores a result against the dataset's golden set.
func Evaluate(d *Dataset, r *Result) Report { return metrics.Evaluate(d, r) }

// TrustMSE is the mean square error between a reference trust vector and
// an estimated one (Eq. 10).
func TrustMSE(reference, estimated []float64) float64 {
	return metrics.TrustMSE(reference, estimated)
}

// AUC is the area under the ROC curve of a result's probabilities over the
// golden set — a threshold-free companion to the paper's fixed-threshold
// metrics.
func AUC(d *Dataset, r *Result) float64 { return metrics.AUC(d, r) }

// IncEstHeu returns the paper's primary algorithm: incremental
// corroboration with entropy-driven (∆H) balanced fact selection. It
// reproduces the paper's worked example exactly and is the right choice
// for datasets with up to a few hundred fact groups.
func IncEstHeu() *IncEstimate { return core.NewHeu() }

// IncEstPS returns the naive greedy strategy (highest-probability group
// first), the paper's ablation of the entropy heuristic.
func IncEstPS() *IncEstimate { return core.NewPS() }

// IncEstScale returns the scale-stabilized profile of the incremental
// algorithm, recommended for crawl-sized datasets; see the core package
// documentation for how it differs from the literal IncEstHeu.
func IncEstScale() *IncEstimate { return core.NewScale() }

// Voting returns the majority baseline: a fact is true when it has at
// least as many T as F votes.
func Voting() Method { return baseline.Voting{} }

// Counting returns the quorum baseline: a fact is true when more than half
// of ALL sources affirm it.
func Counting() Method { return baseline.Counting{} }

// TwoEstimate returns Galland et al.'s iterative corroborator with the
// paper's defaults.
func TwoEstimate() Method { return &baseline.TwoEstimate{} }

// ThreeEstimate returns Galland et al.'s variant with per-fact difficulty.
func ThreeEstimate() Method { return &baseline.ThreeEstimate{} }

// BayesEstimate returns the latent-truth-model corroborator with the
// paper's priors (α⁰ = (100, 10000), α¹ = (50, 50), β = (10, 10)).
func BayesEstimate() Method { return &bayes.Estimate{} }

// TruthFinder returns Yin et al.'s corroborator.
func TruthFinder() Method { return &baseline.TruthFinder{} }

// AvgLog, Invest and PooledInvest return Pasternack & Roth's prior-free
// corroborators.
func AvgLog() Method       { return baseline.AvgLog{} }
func Invest() Method       { return baseline.Invest{} }
func PooledInvest() Method { return baseline.PooledInvest{} }

// MLSVM returns the SMO-trained SVM comparator (10-fold cross-validation
// over the golden set).
func MLSVM() Method { return ml.MLSVM{} }

// MLLogistic returns the logistic-regression comparator (10-fold
// cross-validation over the golden set).
func MLLogistic() Method { return ml.MLLogistic{} }

// MLNaiveBayes returns the categorical naive-Bayes comparator (10-fold
// cross-validation over the golden set).
func MLNaiveBayes() Method { return ml.MLNaiveBayes{} }

// Shared engine runtime, re-exported from internal/engine.
type (
	// RunOptions are the caller-supplied run options every method accepts
	// through RunWith: iteration cap, tolerance, seed and a per-round
	// Observer. Pointer fields distinguish "unset" (nil — use the
	// method's paper default) from an explicit zero.
	RunOptions = engine.Options
	// Round is the per-round observation delivered to a RoundObserver.
	Round = engine.Round
	// RoundObserver receives one Round after every completed iteration.
	RoundObserver = engine.Observer
	// MethodInfo is one registry row: the method's constructor plus the
	// metadata behind the CLI's -list output and the README method table.
	MethodInfo = engine.Entry
)

// Pointer helpers for RunOptions' optional fields.
var (
	// OptInt builds a *int for RunOptions.MaxIter.
	OptInt = engine.Int
	// OptFloat builds a *float64 for RunOptions.Tolerance.
	OptFloat = engine.Float64
	// OptSeed builds a *int64 for RunOptions.Seed.
	OptSeed = engine.Int64
)

// registry is the method catalogue: registration order is presentation
// order (the paper's baselines first, comparators next, the incremental
// algorithms last, mirroring the evaluation tables).
var registry = buildRegistry()

func buildRegistry() *engine.Registry {
	r := engine.NewRegistry()
	for _, e := range []MethodInfo{
		{Name: "Voting", Paper: "§2.1", Doc: "majority baseline: true with at least as many T as F votes", New: Voting},
		{Name: "Counting", Paper: "§2.1", Doc: "quorum baseline: true when more than half of all sources affirm", New: Counting},
		{Name: "BayesEstimate", Paper: "§2.2 (Zhao et al. 2012)", Doc: "latent truth model inferred by collapsed Gibbs sampling", Iterative: true, Seeded: true, New: BayesEstimate},
		{Name: "TwoEstimate", Paper: "§2.1 (Galland et al. 2010)", Doc: "trust/probability fixpoint with normalization", Iterative: true, New: TwoEstimate},
		{Name: "ThreeEstimate", Paper: "§2.1 (Galland et al. 2010)", Doc: "TwoEstimate plus per-fact difficulty", Iterative: true, New: ThreeEstimate},
		{Name: "TruthFinder", Paper: "§7 (Yin et al. 2008)", Doc: "log-trust confidence propagation with logistic squash", Iterative: true, New: TruthFinder},
		{Name: "AvgLog", Paper: "§7 (Pasternack & Roth 2010)", Doc: "belief flow with log claim-count trust", Iterative: true, New: AvgLog},
		{Name: "Invest", Paper: "§7 (Pasternack & Roth 2010)", Doc: "trust invested across claims, super-linear belief growth", Iterative: true, New: Invest},
		{Name: "PooledInvest", Paper: "§7 (Pasternack & Roth 2010)", Doc: "Invest with linear pooling and √count trust", Iterative: true, New: PooledInvest},
		{Name: "ML-SVM (SMO)", Paper: "§6.1.1", Doc: "SMO-trained SVM, 10-fold CV over the golden set", Iterative: true, Seeded: true, New: MLSVM},
		{Name: "ML-Logistic", Paper: "§6.1.1", Doc: "logistic regression, 10-fold CV over the golden set", Iterative: true, Seeded: true, New: MLLogistic},
		{Name: "ML-NaiveBayes", Paper: "comparator extension", Doc: "categorical naive Bayes, 10-fold CV over the golden set", Iterative: true, Seeded: true, New: MLNaiveBayes},
		{Name: "IncEstPS", Paper: "§5.2", Doc: "incremental corroboration, greedy highest-probability selection", Iterative: true, New: func() Method { return IncEstPS() }},
		{Name: "IncEstHeu", Paper: "§5 (Algorithms 1–2)", Doc: "incremental corroboration with entropy-driven (∆H) selection", Iterative: true, New: func() Method { return IncEstHeu() }},
		{Name: "IncEstScale", Paper: "DESIGN.md §5", Doc: "scale-stabilized incremental profile with deferral band", Iterative: true, New: func() Method { return IncEstScale() }},
	} {
		r.MustRegister(e)
	}
	return r
}

// Methods returns every corroboration method in presentation order.
func Methods() []Method { return registry.Methods() }

// MethodInfos returns the registry metadata in presentation order.
func MethodInfos() []MethodInfo { return registry.Entries() }

// NewMethod resolves a method by its display name (case-insensitive), as
// used by the command-line tools.
func NewMethod(name string) (Method, error) {
	if e, ok := registry.Lookup(name); ok {
		return e.New(), nil
	}
	return nil, fmt.Errorf("corroborate: unknown method %q (available: %s)",
		name, strings.Join(registry.Names(), ", "))
}

// RegistryTable renders the registry as a GitHub-flavored markdown table —
// the generated section of README.md (kept in sync by a test).
func RegistryTable() string {
	var b strings.Builder
	b.WriteString("| Method | Paper | Iterative | Seeded | Description |\n")
	b.WriteString("|---|---|:---:|:---:|---|\n")
	mark := func(v bool) string {
		if v {
			return "✓"
		}
		return "–"
	}
	for _, e := range registry.Entries() {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n",
			e.Name, e.Paper, mark(e.Iterative), mark(e.Seeded), e.Doc)
	}
	return b.String()
}
