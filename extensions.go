package corroborate

import (
	"io"
	"math/rand"

	"corroborate/internal/answers"
	"corroborate/internal/audit"
	"corroborate/internal/category"
	"corroborate/internal/core"
	"corroborate/internal/depend"
	"corroborate/internal/metrics"
	"corroborate/internal/truth"
)

// Extensions beyond the reproduced paper: streaming corroboration, source
// dependence, JSON I/O, and statistical tooling.

type (
	// Stream is the online form of the incremental algorithm: votes
	// arrive in batches and the multi-value trust carries across batches.
	// With more than one shard, each batch's fact groups are corroborated
	// across a signature-sharded worker pool; the output is byte-identical
	// for any shard count.
	Stream = core.Stream
	// BatchVote is one vote of a stream batch.
	BatchVote = core.BatchVote
	// StreamFact is one corroborated fact of a stream.
	StreamFact = core.StreamFact
	// GroupPanicError is the typed rejection a stream returns when a fact
	// group's decision panicked even on the contained sequential path; the
	// batch is rolled back atomically.
	GroupPanicError = core.GroupPanicError
	// CheckpointSink is the crash-safe, self-healing home of a stream
	// checkpoint: fsync-before-rename saves with deterministic retry
	// backoff, per-batch log records appended between saves (Commit), and
	// quarantine of corrupt checkpoints and logs on resume.
	CheckpointSink = core.CheckpointSink
	// RestoreReport describes how CheckpointSink.Restore found the
	// checkpoint: resumed, fresh, or quarantined-and-fresh.
	RestoreReport = core.RestoreReport

	// DependenceMatrix holds pairwise source-dependence posteriors.
	DependenceMatrix = depend.Matrix

	// Interval is a two-sided confidence interval.
	Interval = metrics.Interval
)

// NewShardedStream returns an empty corroboration stream using the scale
// profile with the given shard count (clamped to at least 1; 1 decides
// every batch sequentially).
func NewShardedStream(shards int) *Stream { return core.NewShardedStream(shards) }

// RestoreShardedStream reads a checkpoint written by Stream.Checkpoint and
// returns a stream with the given shard count that continues the
// checkpointed one exactly; checkpoints are shard-agnostic, so any shard
// count continues identically.
func RestoreShardedStream(r io.Reader, shards int) (*Stream, error) {
	return core.RestoreShardedStream(r, shards)
}

// NewCheckpointSink returns a crash-safe checkpoint sink at path with
// production defaults (real filesystem, real clock, 3 retries).
func NewCheckpointSink(path string) *CheckpointSink { return core.NewCheckpointSink(path) }

// DependVoting returns the dependence-aware voting method: it detects
// likely copier cliques from shared false affirmations (Dong et al.,
// PVLDB 2009 — the direction the paper's related-work section highlights)
// and discounts their votes.
func DependVoting() Method { return depend.Voting{} }

// SourceDependence scores pairwise source dependence given a corroboration
// result: shared affirmations of probably-false facts are copying
// evidence, disagreement is independence evidence.
func SourceDependence(d *Dataset, r *Result) (DependenceMatrix, error) {
	return depend.Score(d, r)
}

// LoadJSON reads a dataset from a JSON file (see the truth package for the
// format).
func LoadJSON(path string) (*Dataset, error) { return truth.LoadJSON(path) }

// SaveJSON writes a dataset to a JSON file.
func SaveJSON(path string, d *Dataset) error { return truth.SaveJSON(path, d) }

// WriteResultJSON serializes a corroboration result as JSON.
func WriteResultJSON(w io.Writer, d *Dataset, r *Result) error {
	return truth.WriteResultJSON(w, d, r)
}

// BootstrapAccuracy estimates a percentile-bootstrap confidence interval
// for a result's golden-set accuracy.
func BootstrapAccuracy(d *Dataset, r *Result, rounds int, level float64, seed int64) (Interval, error) {
	return metrics.BootstrapAccuracy(d, r, rounds, level, rand.New(rand.NewSource(seed)))
}

// SignificanceTest estimates the two-sided p-value of the null hypothesis
// that two methods have equal golden-set accuracy, via a paired sign
// permutation test (the paper reports p < 0.001 for its headline
// comparisons).
func SignificanceTest(d *Dataset, a, b *Result, rounds int, seed int64) float64 {
	return metrics.PairedPermutationTest(d, a, b, rounds, rand.New(rand.NewSource(seed)))
}

// Per-category trust (the Li/Dong refinement the paper's related work
// closes with): run any method independently per fact category so each
// source carries one trust value per category.
type (
	// CategoryEstimate wraps an inner method with per-category execution.
	CategoryEstimate = category.Estimate
	// CategoryFunc assigns a category to each fact.
	CategoryFunc = category.Func
	// CategoryRun is a per-category result with the trust table.
	CategoryRun = category.Result
	// CategoryTrust is one source-trust vector within one category.
	CategoryTrust = category.CategoryTrust
)

// ByNamePrefix categorizes facts by the part of their name before the
// first sep byte (e.g. "queens/dannys" -> "queens" with sep '/').
func ByNamePrefix(sep byte) CategoryFunc { return category.ByNamePrefix(sep) }

// NewCategoryEstimate builds a per-category wrapper around the given inner
// method constructor.
func NewCategoryEstimate(inner func() Method, categorize CategoryFunc) *CategoryEstimate {
	return &CategoryEstimate{Inner: inner, Categorize: categorize}
}

// Web-answer corroboration (the framework of the paper's predecessor
// system, Wu & Marian 2011): cluster extracted answer strings and rank them
// by supporting sources, trust, originality, and prominence.
type (
	// AnswerCorroborator scores answer clusters for a query.
	AnswerCorroborator = answers.Corroborator
	// Extraction is one answer occurrence from one source.
	Extraction = answers.Extraction
	// RankedAnswer is one scored answer cluster.
	RankedAnswer = answers.RankedAnswer
	// Query is a named extraction set for the dataset bridge.
	Query = answers.Query
)

// Audit planning: turn the entropy machinery into a verification campaign
// planner (which k facts should be checked in person next?).
type (
	// AuditItem is one planned check.
	AuditItem = audit.Item
	// AuditOptions tunes the planner.
	AuditOptions = audit.Options
)

// PlanAudit selects up to k facts whose in-person verification buys the
// most information: maximum-entropy facts first, weighted by their vote-
// signature group size, with diminishing returns per group.
func PlanAudit(d *Dataset, r *Result, k int, opts AuditOptions) ([]AuditItem, error) {
	return audit.Plan(d, r, k, opts)
}
