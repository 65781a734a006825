package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the ID of the span the call stands inside, 0 for an op's root.
type span struct {
	Phase  string `json:"phase"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Count is what the call produced, recorded at the same boundary:
	// bytes written, sources published, facts scanned, rounds run.
	Count int64 `json:"count,omitempty"`
	// Alloc is the heap the call allocated, when measured.
	Alloc uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs share the traced code path. An alternating
// tracer records only every other op, so one phase yields traced and
// untraced ops side by side.
type tracer struct {
	phase     string
	epoch     time.Time
	spans     []span
	ops       int
	alternate bool
	off       bool // the current op is not recorded
}

func newTracer(phase string) *tracer {
	// Room for every span of a run up front, so recording never grows the
	// slice inside a timed call.
	return &tracer{phase: phase, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// newOp starts the next op and returns its ID; with alternate set, op 1
// is recorded, op 2 is not, and so on.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.ops++
	t.off = t.alternate && t.ops%2 == 0
	return t.ops
}

// recording reports whether the current op's spans are kept.
func (t *tracer) recording() bool { return t != nil && !t.off }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span and returns its ID.
func (t *tracer) start(name string, op, parent int) int {
	if t == nil || t.off {
		return 0
	}
	t.spans = append(t.spans, span{Phase: t.phase, ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = t.now()
	}
}

// add records a span whose bounds the caller measured itself.
func (t *tracer) add(name string, op, parent int, start, end int64) {
	if t == nil || t.off {
		return
	}
	t.spans = append(t.spans, span{Phase: t.phase, ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end})
}

func (t *tracer) setCount(id int, n int64) {
	if id > 0 {
		t.spans[id-1].Count = n
	}
}

func (t *tracer) setAlloc(id int, a, b runtimeSample) {
	if id > 0 {
		t.spans[id-1].Alloc = b.allocBytes - a.allocBytes
	}
}

// selfTimes returns each span's self time: its duration minus the length
// of the union of its children's intervals. A child replayed on a twin
// after its parent ran still stands for work done inside the parent, so
// child intervals are not clipped to the parent's.
func selfTimes(spans []span) []int64 {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make([][]span, len(spans))
	for _, s := range spans {
		if i, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[i] = append(children[i], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - unionLen(children[i])
	}
	return out
}

// unionLen is the total length covered by the spans' intervals.
func unionLen(spans []span) int64 {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total, lo, hi int64
	open := false
	for _, x := range s {
		switch {
		case !open:
			lo, hi, open = x.Start, x.End, true
		case x.Start > hi:
			total += hi - lo
			lo, hi = x.Start, x.End
		case x.End > hi:
			hi = x.End
		}
	}
	if open {
		total += hi - lo
	}
	return total
}

// spanStats summarizes spans by name.
type spanStats struct {
	dur, self, count, alloc map[string][]float64
}

func summarize(spans []span) spanStats {
	st := spanStats{
		dur:   make(map[string][]float64),
		self:  make(map[string][]float64),
		count: make(map[string][]float64),
		alloc: make(map[string][]float64),
	}
	self := selfTimes(spans)
	for i, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], ms(time.Duration(s.dur())))
		st.self[s.Name] = append(st.self[s.Name], ms(time.Duration(self[i])))
		st.count[s.Name] = append(st.count[s.Name], float64(s.Count))
		st.alloc[s.Name] = append(st.alloc[s.Name], float64(s.Alloc)/(1<<20))
	}
	return st
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, tracers ...*tracer) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}
