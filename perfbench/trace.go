package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// counts are the work counters recorded at a span's boundary, so that
// ratios (bytes per second, nanoseconds per match) are computed where the
// work happened.
type counts struct {
	Matches      int64 `json:"matches,omitempty"`
	Bytes        int64 `json:"bytes,omitempty"`
	DetStates    int64 `json:"det_states,omitempty"`
	SkippedBytes int64 `json:"skipped_bytes,omitempty"`
	CacheHits    int64 `json:"cache_hits,omitempty"`
	GCCycles     int64 `json:"gc_cycles,omitempty"`
}

// span is one timed call into a layer: name, start and end relative to
// the tracer's origin, the span that caused it (-1 for a root) and the
// request it belongs to.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Counts counts        `json:"counts"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: engine and cluster calls record spans from worker
// goroutines.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	reqs  int // request ids handed out
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newReq returns a fresh request id for the spans of one request.
func (t *tracer) newReq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id and records its counters.
func (t *tracer) end(id int, c counts) {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Counts = c
}

// record adds an already-timed span, for boundaries observed rather than
// wrapped (the client-side HTTP first and last byte).
func (t *tracer) record(name string, parent, req int, start, end time.Time, c counts) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin), Counts: c})
	return id
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerTime is one span name's totals.
type layerTime struct {
	Name  string
	Calls int
	Total time.Duration
	Self  time.Duration
}

// selfTimes totals each span name's duration and self time. A span's
// self time is its duration minus the part of its interval its children
// cover; children that ran concurrently (engine and cluster workers) are
// merged first, so overlapping children are not subtracted twice. The
// result is sorted by self time, largest first.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Calls++
		lt.Total += d
		lt.Self += d - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	slices.SortFunc(out, func(a, b layerTime) int {
		return cmp.Or(cmp.Compare(b.Self, a.Self), cmp.Compare(a.Name, b.Name))
	})
	return out
}

// covered returns how much of parent's interval the union of kids'
// intervals covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = v
			continue
		}
		cur.hi = max(cur.hi, v.hi)
	}
	return total + cur.hi - cur.lo
}

// writeSpans writes spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
