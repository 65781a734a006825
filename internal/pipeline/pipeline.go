// Package pipeline is the lazy relational operator layer over vote
// streams. The paper's evaluation pipeline — filter votes, join with the
// golden truth, group by fact signature, aggregate per source — used to be
// re-implemented as bespoke loops in every consumer (each experiments
// table runner, the robustness sweep, the daemon's query path). This
// package factors that shape into a small set of composable operators in
// the streaming-relational-algebra style: σ (Filter), π (Map), ⋈
// (JoinGolden), γ (Aggregate), plus sampling, windows and the terminal
// collectors.
//
// # Operator model
//
// A stream is a Seq[T]: a push iterator — a function that yields elements
// to a callback until the stream is exhausted or the callback returns
// false (early termination). Operators wrap a Seq in another Seq without
// running it; nothing is computed until a terminal (Collect, Aggregate,
// Count, TopK, Page) drives the chain. The model is the iter.Seq
// shape of the Go standard library, kept as an explicit named type so the
// operators compose by plain function application.
//
// # Laziness contract
//
//   - Building a chain performs no iteration and allocates only the
//     closures (O(operators), independent of stream length).
//   - A terminal makes exactly one pass over the source; early termination
//     propagates upstream, so a consumer whose yield returns false stops
//     the source too.
//   - Streams run on the caller's goroutine: no channels, no spawned
//     goroutines, no locks. Concurrency stays with the caller (the
//     experiments runners fan methods out exactly as before).
//   - Blocking operators are explicit: TopK holds O(k) state; windows
//     hold one window. Nothing else materializes.
//   - Window slices are reused between yields; callers that retain a
//     window past its yield must copy it.
//
// # Determinism rules
//
//   - Operators preserve source order; sources over repository types
//     (datasets, snapshots, scenarios) iterate in their canonical
//     deterministic order, so a fixed seed reproduces every stream
//     byte-for-byte.
//   - TopK is defined as a stable sort by the ranking function followed by
//     truncation: ties keep arrival order. The heap implementation is
//     locked to that reference by the metamorphic battery.
package pipeline

// Seq is a lazy stream of T: calling it pushes elements into yield until
// the stream ends or yield returns false. It is the iter.Seq shape.
type Seq[T any] func(yield func(T) bool)

// FromSlice streams a slice in index order without copying it.
func FromSlice[T any](xs []T) Seq[T] {
	return func(yield func(T) bool) {
		for i := range xs {
			if !yield(xs[i]) {
				return
			}
		}
	}
}

// Filter is σ: it keeps the elements satisfying keep, preserving order.
func Filter[T any](s Seq[T], keep func(T) bool) Seq[T] {
	return func(yield func(T) bool) {
		s(func(v T) bool {
			if !keep(v) {
				return true
			}
			return yield(v)
		})
	}
}

// Map is π: it transforms every element, preserving order.
func Map[T, U any](s Seq[T], f func(T) U) Seq[U] {
	return func(yield func(U) bool) {
		s(func(v T) bool { return yield(f(v)) })
	}
}

// Stride keeps elements 0, step, 2*step, ... — the sampling shape of the
// trajectory figures. step < 1 is treated as 1.
func Stride[T any](s Seq[T], step int) Seq[T] {
	if step <= 1 {
		return s
	}
	return func(yield func(T) bool) {
		i := 0
		s(func(v T) bool {
			keep := i%step == 0
			i++
			if !keep {
				return true
			}
			return yield(v)
		})
	}
}

// Collect is the materializing terminal: it drains the stream into a
// fresh slice (nil for an empty stream).
func Collect[T any](s Seq[T]) []T {
	var out []T
	s(func(v T) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Count drains the stream and reports its length.
func Count[T any](s Seq[T]) int {
	n := 0
	s(func(T) bool {
		n++
		return true
	})
	return n
}

// Aggregate is the γ terminal: it folds the stream left-to-right into an
// accumulator. Because operators preserve order, a float aggregation sums
// in exactly the order a hand-rolled loop over the source would.
func Aggregate[T, A any](s Seq[T], init A, fold func(A, T) A) A {
	acc := init
	s(func(v T) bool {
		acc = fold(acc, v)
		return true
	})
	return acc
}

// Page is the pagination terminal: one pass that counts every element and
// materializes only the window [offset, offset+limit). A negative limit
// means "to the end". Memory is O(limit) (O(matched-offset) when
// unlimited), never O(stream).
func Page[T any](s Seq[T], offset, limit int) (total int, page []T) {
	if offset < 0 {
		offset = 0
	}
	s(func(v T) bool {
		if total >= offset && (limit < 0 || len(page) < limit) {
			page = append(page, v)
		}
		total++
		return true
	})
	return total, page
}

// KeyWindows groups the stream into batch-boundary windows: a new window
// starts whenever key changes between consecutive elements. Elements of
// one batch must therefore arrive contiguously, which every repository
// source guarantees. The yielded slice is reused between windows.
func KeyWindows[T any](s Seq[T], key func(T) int) Seq[[]T] {
	return func(yield func([]T) bool) {
		var buf []T
		cur := 0
		done := false
		s(func(v T) bool {
			k := key(v)
			if len(buf) > 0 && k != cur {
				if !yield(buf) {
					done = true
					return false
				}
				buf = buf[:0]
			}
			cur = k
			buf = append(buf, v)
			return true
		})
		if !done && len(buf) > 0 {
			yield(buf)
		}
	}
}
