package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call: its name, interval, the span that caused it
// and the job it belongs to. Spans of one job share Job; Parent is the
// enclosing span's ID, or noParent for a lane root and for spans whose
// parent is found by containment (see resolve).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Job    string        `json:"job,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

const noParent = -1

func (s Span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced path calls the same methods at no cost.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []Span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span over [start, end] and returns its ID.
func (t *tracer) add(name, job string, parent int, start, end time.Time) int {
	if t == nil {
		return noParent
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return id
}

// begin opens a span ending at the matching finish call.
func (t *tracer) begin(name, job string, parent int) int {
	now := time.Now()
	return t.add(name, job, parent, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil || id == noParent {
		return
	}
	end := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// resolve gives every parentless non-root span (wrapper spans recorded
// on goroutines that do not know their caller) the innermost span that
// contains it — preferring spans of the same job — and drops spans no
// root contains. roots are the lane root IDs.
func resolve(spans []Span, roots []int) []Span {
	isRoot := map[int]bool{}
	for _, r := range roots {
		isRoot[r] = true
	}
	out := make([]Span, 0, len(spans))
	for _, s := range spans {
		if s.Parent != noParent || isRoot[s.ID] {
			out = append(out, s)
			continue
		}
		best, bestSameJob := noParent, false
		for i, c := range spans {
			if c.ID == s.ID || c.Start > s.Start || c.End < s.End || c.dur() < s.dur() {
				continue
			}
			if c.dur() == s.dur() && c.ID > s.ID {
				continue // equal intervals: the earlier-recorded span is the parent
			}
			same := s.Job != "" && c.Job == s.Job
			switch {
			case best == noParent,
				same && !bestSameJob,
				same == bestSameJob && c.dur() < spans[best].dur():
				best, bestSameJob = i, same
			}
		}
		if best == noParent {
			continue
		}
		s.Parent = spans[best].ID
		out = append(out, s)
	}
	return out
}

// selfTimes attributes every instant of each root's interval to exactly
// one span of that root's tree: the deepest one open at that instant
// (the latest-started among equals). A span's self time is what it is
// attributed; where spans nest without overlapping siblings this is its
// duration minus the part its children cover. By construction the self
// times of one tree sum to its root's duration.
func selfTimes(spans []Span, roots []int) (map[int]time.Duration, error) {
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	rootOf := make(map[int]int, len(spans))
	depth := make(map[int]int, len(spans))
	var walk func(id int) (root, d int, err error)
	walk = func(id int) (int, int, error) {
		if r, ok := rootOf[id]; ok {
			return r, depth[id], nil
		}
		s := spans[idx[id]]
		if s.Parent == noParent {
			rootOf[id], depth[id] = id, 0
			return id, 0, nil
		}
		if _, ok := idx[s.Parent]; !ok {
			return 0, 0, fmt.Errorf("span %d (%s) has unknown parent %d", id, s.Name, s.Parent)
		}
		r, d, err := walk(s.Parent)
		if err != nil {
			return 0, 0, err
		}
		rootOf[id], depth[id] = r, d+1
		return r, d + 1, nil
	}
	for _, s := range spans {
		if _, _, err := walk(s.ID); err != nil {
			return nil, err
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, root := range roots {
		r, ok := idx[root]
		if !ok {
			return nil, fmt.Errorf("unknown root span %d", root)
		}
		lo, hi := spans[r].Start, spans[r].End
		var tree []Span
		for _, s := range spans {
			if rootOf[s.ID] == root {
				if s.Start < lo || s.End > hi {
					s.Start, s.End = max(s.Start, lo), min(s.End, hi)
				}
				if s.End > s.Start || s.ID == root {
					tree = append(tree, s)
				}
			}
		}
		var cuts []time.Duration
		for _, s := range tree {
			cuts = append(cuts, s.Start, s.End)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		sort.Slice(tree, func(i, j int) bool { return tree[i].Start < tree[j].Start })
		self[root] += 0 // a root always has an entry, even when fully covered
		var open []Span
		next := 0
		for k := 0; k+1 < len(cuts); k++ {
			a, b := cuts[k], cuts[k+1]
			if b == a {
				continue
			}
			for next < len(tree) && tree[next].Start <= a {
				open = append(open, tree[next])
				next++
			}
			kept := open[:0]
			for _, s := range open {
				if s.End > a {
					kept = append(kept, s)
				}
			}
			open = kept
			best := -1
			for i, s := range open {
				if best < 0 || depth[s.ID] > depth[open[best].ID] ||
					depth[s.ID] == depth[open[best].ID] && s.Start > open[best].Start {
					best = i
				}
			}
			if best >= 0 {
				self[open[best].ID] += b - a
			}
		}
	}
	return self, nil
}

// selfByName sums self times per span name.
func selfByName(spans []Span, self map[int]time.Duration) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		if d, ok := self[s.ID]; ok {
			out[s.Name] += d
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
