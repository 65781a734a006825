package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"corroborate/internal/truth"
)

func background(def Defaults) Config {
	return Options{}.Resolve(context.Background(), def)
}

func TestIterateConvergesWithLegacyCount(t *testing.T) {
	// A loop whose delta halves every round from 1 crosses tol=0.1 on the
	// 0-based round 4 (delta 1/16 = 0.0625): the legacy loops counted that
	// as 5 iterations.
	cfg := background(Defaults{MaxIter: 100, Tolerance: 0.1, HasTolerance: true})
	delta := 2.0
	n, err := Iterate(cfg, func(iter int) (float64, bool, error) {
		delta /= 2
		return delta, false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("iterations = %d, want 5", n)
	}
}

func TestIterateExhaustsCap(t *testing.T) {
	cfg := background(Defaults{MaxIter: 7, Tolerance: 1e-9, HasTolerance: true})
	n, err := Iterate(cfg, func(int) (float64, bool, error) { return 1, false, nil })
	if err != nil || n != 7 {
		t.Errorf("iterations = %d err = %v, want 7, nil", n, err)
	}
}

func TestIterateFixedRounds(t *testing.T) {
	// Without HasTolerance the driver ignores deltas entirely: NoDelta
	// rounds run to the cap.
	cfg := background(Defaults{MaxIter: 20})
	n, err := Iterate(cfg, func(int) (float64, bool, error) { return NoDelta, false, nil })
	if err != nil || n != 20 {
		t.Errorf("iterations = %d err = %v, want 20, nil", n, err)
	}
}

func TestIterateDoneSignal(t *testing.T) {
	// An unbounded loop stops when the step signals done.
	cfg := background(Defaults{})
	n, err := Iterate(cfg, func(iter int) (float64, bool, error) {
		return NoDelta, iter == 3, nil
	})
	if err != nil || n != 4 {
		t.Errorf("iterations = %d err = %v, want 4, nil", n, err)
	}
}

func TestIterateExplicitZeroCap(t *testing.T) {
	// MaxIter: Int(0) is an explicit zero, not "use the default": the loop
	// must not run at all.
	cfg := Options{MaxIter: Int(0)}.Resolve(context.Background(),
		Defaults{MaxIter: 100, Tolerance: 1e-9, HasTolerance: true})
	n, err := Iterate(cfg, func(int) (float64, bool, error) {
		t.Fatal("step must not run with an explicit zero cap")
		return 0, false, nil
	})
	if err != nil || n != 0 {
		t.Errorf("iterations = %d err = %v, want 0, nil", n, err)
	}
}

func TestIterateNegativeCapUnbounded(t *testing.T) {
	cfg := Options{MaxIter: Int(-1)}.Resolve(context.Background(),
		Defaults{MaxIter: 3})
	n, err := Iterate(cfg, func(iter int) (float64, bool, error) {
		return NoDelta, iter == 41, nil
	})
	if err != nil || n != 42 {
		t.Errorf("iterations = %d err = %v, want 42, nil", n, err)
	}
}

func TestIterateExplicitZeroTolerance(t *testing.T) {
	// Tolerance: Float64(0) demands an exact fixpoint: the loop only stops
	// once a round reports delta 0.
	cfg := Options{Tolerance: Float64(0)}.Resolve(context.Background(),
		Defaults{MaxIter: 100, Tolerance: 0.5, HasTolerance: true})
	deltas := []float64{1, 0.25, 0.01, 0, 0}
	n, err := Iterate(cfg, func(iter int) (float64, bool, error) {
		return deltas[iter], false, nil
	})
	if err != nil || n != 4 {
		t.Errorf("iterations = %d err = %v, want 4, nil", n, err)
	}
}

func TestIterateToleranceArmsFixedRoundMethod(t *testing.T) {
	// An explicit tolerance turns a fixed-round schedule into a converging
	// one.
	cfg := Options{Tolerance: Float64(0.5)}.Resolve(context.Background(),
		Defaults{MaxIter: 100})
	n, err := Iterate(cfg, func(iter int) (float64, bool, error) {
		return 1 / float64(iter+1), false, nil //lint:ignore logguard iter starts at 0 so the divisor is at least 1
	})
	if err != nil || n != 2 {
		t.Errorf("iterations = %d err = %v, want 2, nil", n, err)
	}
}

func TestIteratePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Options{}.Resolve(ctx, Defaults{MaxIter: 10})
	n, err := Iterate(cfg, func(int) (float64, bool, error) {
		t.Fatal("step must not run under a cancelled context")
		return 0, false, nil
	})
	if n != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("iterations = %d err = %v, want 0 and context.Canceled", n, err)
	}
	var c *Cancelled
	if !errors.As(err, &c) || c.Round != 0 {
		t.Errorf("error %v does not carry the round boundary", err)
	}
}

func TestIterateMidRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Options{}.Resolve(ctx, Defaults{MaxIter: 10})
	ran := 0
	n, err := Iterate(cfg, func(iter int) (float64, bool, error) {
		ran++
		if iter == 2 {
			cancel() // observed at the NEXT round boundary
		}
		return NoDelta, false, nil
	})
	if ran != 3 || n != 3 {
		t.Errorf("ran %d rounds, driver reports %d, want 3", ran, n)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestIterateStepError(t *testing.T) {
	cfg := background(Defaults{MaxIter: 10})
	boom := errors.New("boom")
	n, err := Iterate(cfg, func(iter int) (float64, bool, error) {
		if iter == 1 {
			return 0, false, boom
		}
		return NoDelta, false, nil
	})
	if n != 1 || !errors.Is(err, boom) {
		t.Errorf("iterations = %d err = %v, want 1, boom", n, err)
	}
}

func TestIterateObserver(t *testing.T) {
	var rounds []Round
	opts := Options{Observer: func(r Round) { rounds = append(rounds, r) }}
	cfg := opts.Resolve(context.Background(), Defaults{MaxIter: 10, Tolerance: 0.5, HasTolerance: true})
	deltas := []float64{2, 1, 0.5}
	if _, err := Iterate(cfg, func(iter int) (float64, bool, error) {
		return deltas[iter], false, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 {
		t.Fatalf("observer saw %d rounds, want 3", len(rounds))
	}
	for i, r := range rounds {
		if r.Iter != i {
			t.Errorf("round %d has Iter %d", i, r.Iter)
		}
		if !approx(r.Delta, deltas[i]) {
			t.Errorf("round %d has Delta %v, want %v", i, r.Delta, deltas[i])
		}
		if r.Done != (i == 2) {
			t.Errorf("round %d has Done %v", i, r.Done)
		}
	}
}

func TestIterateObserverSeesCapDone(t *testing.T) {
	var last Round
	opts := Options{Observer: func(r Round) { last = r }}
	cfg := opts.Resolve(context.Background(), Defaults{MaxIter: 2})
	if _, err := Iterate(cfg, func(int) (float64, bool, error) { return NoDelta, false, nil }); err != nil {
		t.Fatal(err)
	}
	if last.Iter != 1 || !last.Done {
		t.Errorf("final observed round = %+v, want Iter 1 Done true", last)
	}
}

func TestResolvePrecedence(t *testing.T) {
	def := Defaults{MaxIter: 100, Tolerance: 1e-9, HasTolerance: true, Seed: 3}
	cfg := Options{}.Resolve(nil, def)
	if cfg.Ctx == nil {
		t.Error("resolved config must always carry a context")
	}
	if cfg.MaxIter != 100 || !cfg.Capped || !approx(cfg.Tolerance, 1e-9) || !cfg.CheckTolerance || cfg.Seed != 3 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	cfg = Options{MaxIter: Int(7), Tolerance: Float64(0.25), Seed: Int64(11)}.Resolve(nil, def)
	if cfg.MaxIter != 7 || !approx(cfg.Tolerance, 0.25) || cfg.Seed != 11 {
		t.Errorf("overrides not applied: %+v", cfg)
	}
}

func TestOrHelpers(t *testing.T) {
	if OrInt(0, 100) != 100 || OrInt(3, 100) != 3 {
		t.Error("OrInt broken")
	}
	if !approx(OrFloat(0, 1e-9), 1e-9) || !approx(OrFloat(0.5, 1e-9), 0.5) {
		t.Error("OrFloat broken")
	}
}

func TestMaxDelta(t *testing.T) {
	if d := MaxDelta([]float64{1, 2, 3}, []float64{1, 2.5, 2}); !approx(d, 1) {
		t.Errorf("MaxDelta = %v, want 1", d)
	}
	if d := MaxDelta(nil, nil); !approx(d, 0) {
		t.Errorf("MaxDelta(nil) = %v, want 0", d)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := Rand(42), Rand(42)
	for i := 0; i < 16; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("Rand is not deterministic for a fixed seed")
		}
	}
}

type stubMethod struct{ name string }

func (s stubMethod) Name() string { return s.name }
func (s stubMethod) RunWith(_ context.Context, d *truth.Dataset, _ Options) (*truth.Result, error) {
	return truth.NewResult(s.name, d), nil
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"Alpha", "Beta", "Gamma"} {
		name := name
		if err := r.Register(Entry{Name: name, New: func() Method { return stubMethod{name} }}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Register(Entry{Name: "alpha", New: func() Method { return stubMethod{"alpha"} }}); err == nil {
		t.Error("case-insensitive duplicate must be rejected")
	}
	if err := r.Register(Entry{Name: "NoCtor"}); err == nil {
		t.Error("entry without constructor must be rejected")
	}
	if err := r.Register(Entry{New: func() Method { return stubMethod{""} }}); err == nil {
		t.Error("entry without name must be rejected")
	}
	if got := r.Names(); strings.Join(got, ",") != "Alpha,Beta,Gamma" {
		t.Errorf("Names() = %v, want registration order", got)
	}
	if e, ok := r.Lookup("BETA"); !ok || e.Name != "Beta" {
		t.Errorf("case-insensitive Lookup failed: %v %v", e, ok)
	}
	if e, ok := r.Lookup("nope"); ok {
		t.Errorf("Lookup(nope) = %v, want a miss", e)
	}
	if ms := r.Methods(); len(ms) != 3 || ms[1].Name() != "Beta" {
		t.Errorf("Methods() = %v", ms)
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

var _ = fmt.Sprintf // keep fmt for future debugging helpers
