package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer's public
// function. Times are offsets from the tracer's epoch. Parent is the ID of
// the enclosing span (0 for a root); Trace groups the spans of one cell,
// module or request.
type Span struct {
	ID, Parent int
	Trace      uint64
	Layer      string
	Name       string
	Start, End time.Duration
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
//
// Begin/End nest through an implicit current span and are for the single
// goroutine that drives the exec and analyze workloads; Add records a
// finished span with an explicit parent and is safe from any goroutine.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
	cur   int
	trace uint64
	// remote maps W3C span IDs sent to the daemon to client span IDs.
	remote map[string]int
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewTrace starts a fresh trace id for the spans Begin opens next.
func (t *Tracer) NewTrace() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.trace++
	t.mu.Unlock()
}

// Begin opens a span under the current one and makes it current.
func (t *Tracer) Begin(layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: t.cur, Trace: t.trace,
		Layer: layer, Name: name, Start: now})
	t.cur = id
	return id
}

// End closes span id and makes its parent current again.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.cur = t.spans[id-1].Parent
}

// Add records a finished span and returns its ID.
func (t *Tracer) Add(s Span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// offset converts a wall-clock instant to the tracer's time base.
func (t *Tracer) offset(at time.Time) time.Duration { return at.Sub(t.epoch) }

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// layerTotals is one layer's share of a traced run.
type layerTotals struct {
	Self  time.Duration
	Calls int
}

// selfTimes computes each span's self time — its duration minus the part
// of its interval covered by its children — and sums it per layer. It also
// returns the summed duration of the root spans, which bounds the time the
// spans account for.
func selfTimes(spans []Span) (map[string]layerTotals, time.Duration) {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTotals{}
	var roots time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			roots += s.End - s.Start
		}
		lt := out[s.Layer]
		lt.Self += s.End - s.Start - covered(s, children[s.ID])
		lt.Calls++
		out[s.Layer] = lt
	}
	return out, roots
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}
