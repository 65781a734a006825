package engine

import "context"

// Observer is a per-round callback: it receives one Round after every
// completed iteration of the driver. Observers are instrumentation only —
// they must not mutate the method's state, and the runtime guarantees the
// run's Result is unaffected by their presence.
type Observer func(Round)

// Options are the caller-supplied run options shared by every method.
// Pointer fields distinguish "unset" (nil — use the method's paper
// default) from an explicit zero: Tolerance: Float64(0) demands an exact
// fixpoint and MaxIter: Int(0) runs zero rounds.
type Options struct {
	// MaxIter overrides the method's iteration/round cap. Negative values
	// remove the cap entirely.
	MaxIter *int
	// Tolerance overrides the convergence threshold of tolerance-checked
	// methods (and arms the check on methods that default to fixed rounds).
	Tolerance *float64
	// Seed overrides the RNG seed of seeded methods, so one -seed value
	// reproduces every randomized run.
	Seed *int64
	// Observer, when non-nil, is invoked once per completed round.
	Observer Observer
}

// Int returns a pointer to v, for Options.MaxIter.
func Int(v int) *int { return &v }

// Float64 returns a pointer to v, for Options.Tolerance.
func Float64(v float64) *float64 { return &v }

// Int64 returns a pointer to v, for Options.Seed.
func Int64(v int64) *int64 { return &v }

// Defaults are one method's paper-faithful parameters, declared in a
// single expression per method instead of the duplicated params() helpers
// the runtime replaced.
type Defaults struct {
	// MaxIter is the default iteration cap; 0 means the loop is unbounded
	// (the method signals completion through its Step's done flag).
	MaxIter int
	// Tolerance is the default convergence threshold, meaningful only when
	// HasTolerance is set.
	Tolerance float64
	// HasTolerance arms the driver's convergence check; methods that run a
	// fixed number of rounds (the Pasternack & Roth family, Gibbs
	// schedules, cross-validation folds) leave it false.
	HasTolerance bool
	// Seed is the default RNG seed of seeded methods.
	Seed int64
}

// Config is a fully resolved run configuration: Options applied over a
// method's Defaults. Build one with Options.Resolve and hand it to Iterate.
type Config struct {
	// Ctx is never nil after Resolve.
	Ctx context.Context
	// MaxIter is the iteration cap, meaningful only when Capped.
	MaxIter int
	// Capped reports whether the driver enforces MaxIter.
	Capped bool
	// Tolerance is the convergence threshold, armed by CheckTolerance.
	Tolerance float64
	// CheckTolerance makes the driver stop once a round's delta is at or
	// below Tolerance.
	CheckTolerance bool
	// Seed is the resolved RNG seed.
	Seed int64
	// Observer is dispatched by the driver after every round (may be nil).
	Observer Observer
}

// Resolve merges the options over the method defaults. A nil ctx means
// context.Background. An explicit MaxIter of zero is honoured (zero
// rounds); a negative one removes the cap. An explicit Tolerance arms the
// convergence check even on fixed-round methods.
func (o Options) Resolve(ctx context.Context, def Defaults) Config {
	cfg := Config{
		Ctx:            ctx,
		MaxIter:        def.MaxIter,
		Capped:         def.MaxIter > 0,
		Tolerance:      def.Tolerance,
		CheckTolerance: def.HasTolerance,
		Seed:           def.Seed,
		Observer:       o.Observer,
	}
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	if o.MaxIter != nil {
		cfg.MaxIter = *o.MaxIter
		cfg.Capped = *o.MaxIter >= 0
	}
	if o.Tolerance != nil {
		cfg.Tolerance = *o.Tolerance
		cfg.CheckTolerance = true
	}
	if o.Seed != nil {
		cfg.Seed = *o.Seed
	}
	return cfg
}
