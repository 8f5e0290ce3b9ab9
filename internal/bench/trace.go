package bench

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public surface, recorded by the
// harness from its own files (tracing inside the program is a later
// change). Start and End are nanoseconds since the tracer was created;
// Parent is the ID of the span that caused it (0 for a root) and Iter
// the iteration the span belongs to, so the spans of one operation
// share an identifier.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Iter   int    `json:"iter"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced run: every method is a no-op, so traced and untraced
// iterations execute the same harness code.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	iter  int
	spans []Span
}

// NewTracer starts an empty trace for iteration iter.
func NewTracer(iter int) *Tracer { return &Tracer{epoch: time.Now(), iter: iter} }

// Start opens a span under parent (0 for a root) and returns its ID.
func (t *Tracer) Start(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Iter: t.iter,
		Start: int64(time.Since(t.epoch))})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Do runs f inside a span named name under parent.
func (t *Tracer) Do(name string, parent int, f func()) {
	id := t.Start(name, parent)
	f()
	t.End(id)
}

// Spans returns the recorded spans (nil for the untraced run).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's self time keyed by span ID: its
// duration minus the part of that interval its child spans cover.
// Children may overlap one another (two clients' jobs under one root),
// so coverage is the union of their intervals clipped to the parent.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// TotalByName sums span durations per span name, in seconds.
func TotalByName(spans []Span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.Dur().Seconds()
	}
	return out
}

// UnattributedShare is the part of the root spans' wall time that no
// child span covers — what the per-layer table cannot explain.
func UnattributedShare(spans []Span) float64 {
	self := SelfTimes(spans)
	var rootSelf, rootDur time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			rootSelf += self[s.ID]
			rootDur += s.Dur()
		}
	}
	if rootDur == 0 {
		return 0
	}
	return float64(rootSelf) / float64(rootDur)
}
