package engine

import (
	"fmt"
	"math"
	"math/rand"
)

// Round is the per-round observation dispatched to an Observer.
type Round struct {
	// Iter is the 0-based index of the completed round.
	Iter int
	// Delta is the convergence measure the round reported (NoDelta when
	// the method has none).
	Delta float64
	// Done reports that the driver stops after this round: the method
	// signalled completion, the tolerance was met, or the cap is reached.
	Done bool
}

// NoDelta is the convergence measure reported by rounds that have none
// (fixed-round schedules); it never satisfies a tolerance check.
var NoDelta = math.Inf(1)

// Step performs exactly one round of a method: one fixpoint sweep, one
// Gibbs pass, one time point, one cross-validation fold. It returns the
// round's convergence measure (NoDelta when meaningless), done to signal
// completion regardless of tolerance (e.g. no facts remaining), and an
// error to abort the run.
type Step func(iter int) (delta float64, done bool, err error)

// Cancelled is the error Iterate returns when the context is cancelled at
// a round boundary. It wraps the context's error, so errors.Is(err,
// context.Canceled) and errors.Is(err, context.DeadlineExceeded) work.
type Cancelled struct {
	// Round is the 0-based index of the round that did not start.
	Round int
	// Err is the context's error.
	Err error
}

// Error implements error.
func (c *Cancelled) Error() string {
	return fmt.Sprintf("engine: run cancelled at round boundary %d: %v", c.Round, c.Err)
}

// Unwrap exposes the context error to errors.Is/As.
func (c *Cancelled) Unwrap() error { return c.Err }

// Iterate is the shared fixpoint driver: it runs step until the method
// signals done, a round's delta falls within the tolerance (when the
// config arms the check), the iteration cap is reached, or the context is
// cancelled. Cancellation is only observed at round boundaries — a started
// round always finishes, so a cancelled run has absorbed either all or
// none of any round's effects. It returns the number of completed rounds;
// on error the count tells how many rounds ran before the abort.
//
// The count semantics match the hand-rolled loops the driver replaced: a
// run that converges during its k-th round (0-based k) reports k+1
// iterations, and a run that exhausts the cap reports MaxIter.
func Iterate(cfg Config, step Step) (int, error) {
	ctx := cfg.Ctx
	iter := 0
	for {
		if cfg.Capped && iter >= cfg.MaxIter {
			break
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return iter, &Cancelled{Round: iter, Err: err}
			}
		}
		delta, done, err := step(iter)
		if err != nil {
			return iter, err
		}
		stop := done || (cfg.CheckTolerance && delta <= cfg.Tolerance)
		iter++
		if cfg.Observer != nil {
			cfg.Observer(Round{
				Iter:  iter - 1,
				Delta: delta,
				Done:  stop || (cfg.Capped && iter >= cfg.MaxIter),
			})
		}
		if stop {
			break
		}
	}
	return iter, nil
}

// MaxDelta is the standard change measure of the trust-iteration methods:
// the largest absolute component-wise difference between two vectors.
func MaxDelta(prev, next []float64) float64 {
	var d float64
	for i := range next {
		if diff := math.Abs(next[i] - prev[i]); diff > d {
			d = diff
		}
	}
	return d
}

// Rand returns the deterministic generator every seeded method draws from:
// one seeded source per run, never the global math/rand stream.
func Rand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
