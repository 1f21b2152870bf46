package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the layer pass made into a layer's public
// functions. Spans of one replayed request share trace; parent is the id
// of the span that caused this one (0 for the request's root).
type span struct {
	Trace   int              `json:"trace"`
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// spanRecorder keeps every span in memory until the benchmark ends. It is
// used from one goroutine (the layer pass is single-threaded by design).
type spanRecorder struct {
	epoch time.Time
	spans []span
	trace int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// newTrace opens the next request's trace and returns its root span id.
func (r *spanRecorder) newTrace(name string) (root int) {
	r.trace++
	return r.start(0, name)
}

// start opens a span under parent and returns its id.
func (r *spanRecorder) start(parent int, name string) int {
	r.spans = append(r.spans, span{
		Trace: r.trace, ID: len(r.spans) + 1, Parent: parent, Name: name,
		StartNS: time.Since(r.epoch).Nanoseconds(),
	})
	return len(r.spans)
}

// finish closes span id and attaches its counts.
func (r *spanRecorder) finish(id int, counts map[string]int64) {
	s := &r.spans[id-1]
	s.EndNS = time.Since(r.epoch).Nanoseconds()
	s.Counts = counts
}

// timed records fn as a child span of parent and returns its duration.
func (r *spanRecorder) timed(parent int, name string, counts map[string]int64, fn func()) time.Duration {
	id := r.start(parent, name)
	fn()
	r.finish(id, counts)
	s := r.spans[id-1]
	return time.Duration(s.EndNS - s.StartNS)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its direct children (children may
// overlap each other and may stick out past the parent; only the covered
// part of the parent's own interval is subtracted).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return out
}

// selfByName sums self times per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// write dumps every recorded span as one JSON array.
func (r *spanRecorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
