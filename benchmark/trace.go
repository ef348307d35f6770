package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval. Spans are recorded only by this package,
// around calls into the program's public functions; Op numbers the facade
// call a span belongs to (0 outside the op phases).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Op      int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the measure phase runs the same code with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: t.now(), Op: op})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = t.now()
}

// add records a closed span whose interval was measured elsewhere (the
// explain snapshot's phases).
func (t *tracer) add(name string, parent, op int, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: start, EndNS: end, Op: op})
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// write stores the spans, and the self time summed by span name, as JSON.
func (t *tracer) write(path, workload string) error {
	selfByName := make(map[string]int64)
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		selfByName[s.Name] += self[s.ID]
	}
	raw, err := json.Marshal(struct {
		Workload   string           `json:"workload"`
		SelfByName map[string]int64 `json:"self_ns_by_name"`
		Spans      []span           `json:"spans"`
	}{workload, selfByName, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
