// Package category implements per-category source trust, the refinement the
// paper's related-work section closes with: Li, Dong et al. (PVLDB 2013)
// observed that "fractions of data from the same source can have different
// quality and suggested that differentiating source quality for different
// categories of data could improve corroboration quality". Wu & Marian's
// multi-value trust varies a source's trust over *time* (evaluation order);
// this package varies it over a *partition of the facts* — e.g. a directory
// may be reliable for Manhattan restaurants and stale for Queens.
//
// CategoryEstimate wraps any inner corroboration method: facts are
// partitioned by a caller-supplied category function, the inner method runs
// per category, and the per-category results are stitched back together.
// Sources end up with one trust value per category — a complementary form
// of multi-value trust that composes with the paper's incremental one (use
// an IncEstimate as the inner method).
package category

import (
	"context"
	"fmt"
	"sort"

	"corroborate/internal/engine"
	"corroborate/internal/truth"
)

// Func assigns a category name to each fact of a dataset. Fact indices are
// into the dataset passed to RunWith. An empty string is a valid category.
type Func func(d *truth.Dataset, fact int) string

// ByNamePrefix categorizes facts by the portion of their name before the
// first occurrence of sep (the whole name if sep is absent) — convenient
// when fact names encode a region or type, e.g. "manhattan/dannys".
func ByNamePrefix(sep byte) Func {
	return func(d *truth.Dataset, fact int) string {
		name := d.FactName(fact)
		for i := 0; i < len(name); i++ {
			if name[i] == sep {
				return name[:i]
			}
		}
		return name
	}
}

// Estimate runs an inner corroboration method independently per fact
// category, giving every source a separate trust value in each category.
type Estimate struct {
	// Inner builds the per-category method; it is invoked once per
	// category so stateful methods get a fresh instance each time.
	Inner func() engine.Method
	// Categorize assigns facts to categories.
	Categorize Func
}

// CategoryTrust is one source's trust within one category.
type CategoryTrust struct {
	Category string
	Trust    []float64
}

// Result is the stitched outcome plus the per-category trust table.
type Result struct {
	*truth.Result
	// PerCategory is ordered by category name.
	PerCategory []CategoryTrust
}

// Name implements engine.Method (for the embedded standard result the name
// is "Category(<inner>)").
func (e *Estimate) Name() string {
	if e.Inner == nil {
		return "Category(?)"
	}
	return "Category(" + e.Inner().Name() + ")"
}

// RunWith implements engine.Method.
func (e *Estimate) RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*truth.Result, error) {
	r, err := e.RunDetailedWith(ctx, d, opts)
	if err != nil {
		return nil, err
	}
	return r.Result, nil
}

// RunDetailedWith partitions, corroborates per category, and stitches,
// returning the per-category trust table too. The outer loop runs one
// driver round per category (so cancellation lands between
// categories and an Observer sees one Round per category), while MaxIter,
// Tolerance and Seed forward to every inner run — the iteration options
// govern the wrapped method, not the partition sweep.
func (e *Estimate) RunDetailedWith(ctx context.Context, d *truth.Dataset, opts engine.Options) (*Result, error) {
	if e.Inner == nil {
		return nil, fmt.Errorf("category: no inner method configured")
	}
	if e.Categorize == nil {
		return nil, fmt.Errorf("category: no categorize function configured")
	}
	byCat := make(map[string][]int)
	for f := 0; f < d.NumFacts(); f++ {
		c := e.Categorize(d, f)
		byCat[c] = append(byCat[c], f)
	}
	cats := make([]string, 0, len(byCat))
	for c := range byCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)

	out := &Result{Result: truth.NewResult(e.Name(), d)}
	// Average per-category trust (weighted by the source's vote count in
	// the category) doubles as the flat Trust vector.
	sumTrust := make([]float64, d.NumSources())
	cntTrust := make([]float64, d.NumSources())

	// One driver round per category: the outer config takes only the
	// context and Observer from opts, never its MaxIter/Tolerance — those
	// belong to the inner runs below.
	outer := (engine.Options{Observer: opts.Observer}).
		Resolve(ctx, engine.Defaults{MaxIter: len(cats)})
	// Defaults treats MaxIter 0 as unbounded; an empty partition must run
	// zero rounds, so pin the cap to the category count unconditionally.
	outer.MaxIter = len(cats)
	outer.Capped = true
	inner := opts
	inner.Observer = nil
	if _, err := engine.Iterate(outer, func(i int) (float64, bool, error) {
		c := cats[i]
		facts := byCat[c]
		sub := truth.Restrict(d, facts)
		m := e.Inner()
		r, err := m.RunWith(outer.Ctx, sub, inner)
		if err != nil {
			return 0, false, fmt.Errorf("category: %s on category %q: %w", m.Name(), c, err)
		}
		if err := r.Check(sub); err != nil {
			return 0, false, fmt.Errorf("category: %s on category %q: %w", m.Name(), c, err)
		}
		for i, f := range facts {
			out.FactProb[f] = r.FactProb[i]
		}
		ct := CategoryTrust{Category: c, Trust: make([]float64, d.NumSources())}
		for s := 0; s < d.NumSources(); s++ {
			votes := len(sub.VotesBySource(s))
			tr := 0.5
			if r.Trust != nil {
				tr = r.Trust[s]
			}
			ct.Trust[s] = tr
			if votes > 0 && r.Trust != nil {
				sumTrust[s] += tr * float64(votes)
				cntTrust[s] += float64(votes)
			}
		}
		out.PerCategory = append(out.PerCategory, ct)
		return engine.NoDelta, false, nil
	}); err != nil {
		return nil, err
	}
	out.Trust = make([]float64, d.NumSources())
	for s := range out.Trust {
		if cntTrust[s] > 0 {
			out.Trust[s] = sumTrust[s] / cntTrust[s]
		} else {
			out.Trust[s] = 0.5
		}
	}
	out.Finalize()
	return out, nil
}

var _ engine.Method = (*Estimate)(nil)
