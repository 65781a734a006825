package corroborate_test

import (
	"context"
	"errors"
	"testing"

	"corroborate"
)

// iterativeInfos returns the registry entries flagged Iterative.
func iterativeInfos() []corroborate.MethodInfo {
	var out []corroborate.MethodInfo
	for _, e := range corroborate.MethodInfos() {
		if e.Iterative {
			out = append(out, e)
		}
	}
	return out
}

// TestExplicitZeroMaxIter locks the default-parameter fix: MaxIter set to
// an explicit zero must run zero fixpoint rounds, not fall back to the
// method's paper default the way the old zero-means-default struct fields
// did.
func TestExplicitZeroMaxIter(t *testing.T) {
	d := corroborate.MotivatingExample()
	for _, name := range []string{"TwoEstimate", "ThreeEstimate", "TruthFinder", "AvgLog", "Invest", "PooledInvest"} {
		m, err := corroborate.NewMethod(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.RunWith(context.Background(), d,
			corroborate.RunOptions{MaxIter: corroborate.OptInt(0)})
		if err != nil {
			t.Errorf("%s with MaxIter 0: %v", name, err)
			continue
		}
		if r.Iterations != 0 {
			t.Errorf("%s with MaxIter 0 ran %d iterations, want 0", name, r.Iterations)
		}
	}
}

// TestExplicitZeroTolerance asserts that Tolerance: 0 means "exact
// fixpoint", a stricter setting than the default — never "use the
// default". The strict run must take at least as many rounds as the
// default one.
func TestExplicitZeroTolerance(t *testing.T) {
	d := corroborate.MotivatingExample()
	for _, name := range []string{"TwoEstimate", "ThreeEstimate"} {
		m, err := corroborate.NewMethod(name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := m.RunWith(context.Background(), d, corroborate.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		strict, err := m.RunWith(context.Background(), d,
			corroborate.RunOptions{Tolerance: corroborate.OptFloat(0)})
		if err != nil {
			t.Errorf("%s with Tolerance 0: %v", name, err)
			continue
		}
		if strict.Iterations < base.Iterations {
			t.Errorf("%s: explicit zero tolerance converged after %d rounds, sooner than the default's %d — zero was treated as unset",
				name, strict.Iterations, base.Iterations)
		}
	}
}

// TestObserverRoundCount runs every registered method with a counting
// Observer: iterative methods must deliver exactly Result.Iterations
// rounds, one-shot methods exactly one round, and the final round must
// carry Done.
func TestObserverRoundCount(t *testing.T) {
	d := corroborate.MotivatingExample()
	for _, e := range corroborate.MethodInfos() {
		rounds := 0
		var last corroborate.Round
		r, err := e.New().RunWith(context.Background(), d,
			corroborate.RunOptions{Observer: func(rd corroborate.Round) {
				rounds++
				last = rd
			}})
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if rounds == 0 {
			t.Errorf("%s: observer saw no rounds", e.Name)
			continue
		}
		if !last.Done {
			t.Errorf("%s: final observed round (iter %d) not marked Done", e.Name, last.Iter)
		}
		if last.Iter != rounds-1 {
			t.Errorf("%s: final round numbered %d after %d rounds", e.Name, last.Iter, rounds)
		}
		want := r.Iterations
		if !e.Iterative {
			want = 1 // one-shot methods run as a single driver round
		}
		if rounds != want {
			t.Errorf("%s: observer saw %d rounds, Result.Iterations = %d", e.Name, rounds, r.Iterations)
		}
	}
}

// TestCancellationPerMethod cancels every registered method mid-run (from
// the first round's Observer callback) and checks for a clean failure: an
// error wrapping context.Canceled and no partial Result.
func TestCancellationPerMethod(t *testing.T) {
	d := corroborate.MotivatingExample()
	for _, e := range iterativeInfos() {
		ctx, cancel := context.WithCancel(context.Background())
		r, err := e.New().RunWith(ctx, d,
			corroborate.RunOptions{Observer: func(corroborate.Round) { cancel() }})
		cancel()
		if err == nil {
			t.Errorf("%s: no error from mid-run cancellation", e.Name)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancellation error %v does not wrap context.Canceled", e.Name, err)
		}
		if r != nil {
			t.Errorf("%s: cancelled run still returned a partial Result", e.Name)
		}
	}
}

// TestPreCancelledContext covers the one-shot methods too: a context that
// is already cancelled must stop every method before any work happens.
func TestPreCancelledContext(t *testing.T) {
	d := corroborate.MotivatingExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range corroborate.MethodInfos() {
		r, err := e.New().RunWith(ctx, d, corroborate.RunOptions{})
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled context produced (%v, %v), want a context.Canceled error", e.Name, r, err)
		}
		if r != nil {
			t.Errorf("%s: pre-cancelled run returned a Result", e.Name)
		}
	}
}

// TestSeedOptionReproduces asserts the -seed plumbing: for every seeded
// method, the same Options.Seed reproduces the run and a different seed is
// at least accepted (the streams are independent of the constructor's).
func TestSeedOptionReproduces(t *testing.T) {
	d := corroborate.MotivatingExample()
	for _, e := range corroborate.MethodInfos() {
		if !e.Seeded {
			continue
		}
		run := func(seed int64) *corroborate.Result {
			r, err := e.New().RunWith(context.Background(), d,
				corroborate.RunOptions{Seed: corroborate.OptSeed(seed)})
			if err != nil {
				t.Fatalf("%s with seed %d: %v", e.Name, seed, err)
			}
			return r
		}
		a, b := run(11), run(11)
		for f := range a.FactProb {
			if a.FactProb[f] != b.FactProb[f] {
				t.Errorf("%s: seed 11 is not reproducible at fact %d (%g vs %g)",
					e.Name, f, a.FactProb[f], b.FactProb[f])
				break
			}
		}
		run(12) // a different seed must also produce a clean run
	}
}

// TestRegistryLookup exercises the registry-backed facade: presentation
// order, case-insensitive resolution, and the unknown-name error.
func TestRegistryLookup(t *testing.T) {
	infos := corroborate.MethodInfos()
	methods := corroborate.Methods()
	if len(infos) != len(methods) {
		t.Fatalf("MethodInfos has %d entries, Methods %d", len(infos), len(methods))
	}
	for i, e := range infos {
		if methods[i].Name() != e.Name {
			t.Errorf("registry row %d: entry %q but method %q", i, e.Name, methods[i].Name())
		}
		m, err := corroborate.NewMethod(e.Name)
		if err != nil || m.Name() != e.Name {
			t.Errorf("NewMethod(%q) = %v, %v", e.Name, m, err)
		}
	}
	if _, err := corroborate.NewMethod("incestheu"); err != nil {
		t.Errorf("lookup must be case-insensitive: %v", err)
	}
	if _, err := corroborate.NewMethod("nope"); err == nil {
		t.Error("unknown method name must be rejected")
	}
}
