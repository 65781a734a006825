package serve

import (
	"fmt"
	"net/url"
	"strconv"

	"corroborate/internal/core"
	"corroborate/internal/truth"
)

// queryParams is the parsed form of GET /query's selector and shaping
// parameters. The zero value via newQueryParams matches everything and
// pages nothing out.
type queryParams struct {
	fact       string      // exact fact-name selector; "" matches any
	prefix     string      // fact-name prefix selector; "" matches any
	batch      int         // exact batch selector; -1 matches any
	prediction truth.Label // prediction selector; Unknown matches any
	offset     int         // pagination start
	limit      int         // page size; -1 means to the end
	top        int         // top-k by probability; 0 means paging mode
}

func newQueryParams() queryParams {
	return queryParams{batch: -1, limit: -1}
}

// filtered reports whether any selector is active.
func (p queryParams) filtered() bool {
	return p.fact != "" || p.prefix != "" || p.batch >= 0 || p.prediction != truth.Unknown
}

// parseQueryParams validates the full /query parameter surface:
//
//	fact=<name>        exact fact name
//	prefix=<p>         fact-name prefix
//	batch=<n>          single batch index
//	prediction=true|false
//	offset=<n>&limit=<n>  pagination over the matched stream
//	top=<k>            the k highest-probability matches instead of a page
//
// Unknown parameters, malformed or negative numbers, and conflicting
// shapes (top combined with offset/limit) are rejected — a typo must fail
// loudly rather than silently return the unfiltered log.
func parseQueryParams(q url.Values) (queryParams, error) {
	p := newQueryParams()
	for key, vals := range q {
		if len(vals) != 1 {
			return p, fmt.Errorf("parameter %q given %d times, want once", key, len(vals))
		}
		v := vals[0]
		switch key {
		case "fact":
			p.fact = v
		case "prefix":
			p.prefix = v
		case "batch":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return p, fmt.Errorf("bad batch %q", v)
			}
			p.batch = n
		case "prediction":
			switch v {
			case "true":
				p.prediction = truth.True
			case "false":
				p.prediction = truth.False
			default:
				return p, fmt.Errorf("bad prediction %q (want true or false)", v)
			}
		case "offset":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return p, fmt.Errorf("bad offset %q", v)
			}
			p.offset = n
		case "limit":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return p, fmt.Errorf("bad limit %q", v)
			}
			p.limit = n
		case "top":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return p, fmt.Errorf("bad top %q (want a positive count)", v)
			}
			p.top = n
		default:
			return p, fmt.Errorf("unknown parameter %q", key)
		}
	}
	if p.top > 0 && (p.offset != 0 || p.limit != -1) {
		return p, fmt.Errorf("top cannot be combined with offset/limit")
	}
	return p, nil
}

// matches reports whether a decided fact passes every active selector.
func (p queryParams) matches(f core.StreamFact) bool {
	if p.fact != "" && f.Name != p.fact {
		return false
	}
	if p.prefix != "" && (len(f.Name) < len(p.prefix) || f.Name[:len(p.prefix)] != p.prefix) {
		return false
	}
	if p.batch >= 0 && f.Batch != p.batch {
		return false
	}
	if p.prediction != truth.Unknown && f.Prediction != p.prediction {
		return false
	}
	return true
}

// evalQuery evaluates one parsed query in one pass over the snapshot's
// decided-fact log: the selectors filter each fact, total counts every
// match, and the shape keeps either the page [offset, offset+limit) or
// the top k by probability in a bounded heap. Memory is O(page) or O(k),
// never a copy of the matched set, let alone the log (alloc ceilings in
// query_test.go pin this).
func evalQuery(snap *core.StreamSnapshot, p queryParams) (total int, facts []core.StreamFact) {
	filtered := p.filtered()
	var top topFacts
	if p.top > 0 {
		// The heap never holds more than the log, whatever top asks for.
		top = topFacts{k: p.top, heap: make([]rankedFact, 0, min(p.top, len(snap.Facts)))}
	}
	for _, f := range snap.Facts {
		if filtered && !p.matches(f) {
			continue
		}
		if p.top > 0 {
			top.push(rankedFact{f: f, ord: total})
		} else if total >= p.offset && (p.limit < 0 || len(facts) < p.limit) {
			facts = append(facts, f)
		}
		total++
	}
	if p.top > 0 {
		return total, top.drain()
	}
	return total, facts
}

// rankedFact is a top-k candidate: a matched fact and its match ordinal.
type rankedFact struct {
	f   core.StreamFact
	ord int
}

// worse reports whether a ranks strictly below b: b has the higher
// probability, or neither is higher and a arrived later. Both comparisons
// are >, so values that do not compare (NaN) tie and keep arrival order.
func (a rankedFact) worse(b rankedFact) bool {
	if a.f.Probability > b.f.Probability {
		return false
	}
	if b.f.Probability > a.f.Probability {
		return true
	}
	return a.ord > b.ord
}

// topFacts selects the k highest-probability facts of a stream, as if the
// stream were stably sorted by probability, descending, and truncated to
// k: ties keep arrival order. It is a bounded min-heap with the worst
// survivor at the root, so a better newcomer evicts it: O(k) memory and
// O(n log k) time over n facts.
type topFacts struct {
	k    int
	heap []rankedFact
}

// push offers one candidate to the heap.
func (t *topFacts) push(e rankedFact) {
	if len(t.heap) < t.k {
		t.heap = append(t.heap, e)
		t.siftUp(len(t.heap) - 1)
		return
	}
	if e.worse(t.heap[0]) {
		return // does not beat the current worst
	}
	t.heap[0] = e
	t.siftDown(0)
}

func (t *topFacts) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.heap[i].worse(t.heap[p]) {
			return
		}
		t.heap[i], t.heap[p] = t.heap[p], t.heap[i]
		i = p
	}
}

func (t *topFacts) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(t.heap) && t.heap[l].worse(t.heap[least]) {
			least = l
		}
		if r < len(t.heap) && t.heap[r].worse(t.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		t.heap[i], t.heap[least] = t.heap[least], t.heap[i]
		i = least
	}
}

// drain empties the heap worst-first into the tail of the result, leaving
// the survivors in rank order (ties in arrival order).
func (t *topFacts) drain() []core.StreamFact {
	out := make([]core.StreamFact, len(t.heap))
	for n := len(t.heap); n > 0; n-- {
		out[n-1] = t.heap[0].f
		t.heap[0] = t.heap[n-1]
		t.heap = t.heap[:n-1]
		t.siftDown(0)
	}
	return out
}
