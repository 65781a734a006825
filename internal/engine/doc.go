// Package engine is the shared algorithm runtime every corroboration
// method in this repository plugs into. Before it existed, each of the 15+
// reproduced methods hand-rolled its own fixpoint loop, MaxIter/Tolerance
// defaults, and RNG, and only the streaming path understood
// context.Context; fair comparison across truth-discovery algorithms
// (Waguih & Berti-Équille 2014; Li et al. 2015) demands one harness with
// shared convergence criteria, iteration caps, seeds, and per-round
// instrumentation.
//
// The runtime has three parts:
//
//   - Options / Defaults / Config: caller-supplied run options (iteration
//     cap, tolerance, seed, per-round Observer) resolved against a
//     method's paper-faithful defaults. Options is the only run-time
//     override; its pointer fields distinguish an explicit zero from
//     "unset", which a "0 means default" struct field cannot express.
//   - Iterate: the generic fixpoint driver. It owns the iteration cap, the
//     tolerance-based convergence check (with MaxDelta as the standard
//     change measure), round-boundary cancellation (a round is never
//     interrupted mid-flight), and Observer dispatch. A method's Step
//     closure performs exactly one round and reports its convergence
//     measure; the driver decides whether to keep going.
//   - Registry: the method catalogue (name → constructor plus metadata:
//     paper section, iterative?, seeded?) that backs the facade's
//     Methods()/NewMethod and the CLI's -list output.
//
// Every method implements one interface, Method, whose single entry point
//
//	RunWith(ctx context.Context, d *truth.Dataset, opts engine.Options)
//
// takes the context and the options directly; callers invoke it on the
// method itself, with no dispatcher in between. With a background context
// and empty options each method reproduces its paper defaults bit for bit
// — locked down by the golden differential suite at the repository root.
package engine
