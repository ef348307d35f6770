package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// captureTracer records events for assertions.
type captureTracer struct {
	mu     sync.Mutex
	events []Event
}

func (c *captureTracer) Event(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func TestNilSpanIsNoOp(t *testing.T) {
	s := StartSpan(nil, "q")
	if s != nil {
		t.Fatalf("StartSpan(nil) = %v, want nil", s)
	}
	if s.Enabled() {
		t.Fatalf("nil span reports Enabled")
	}
	// All methods must be nil-safe.
	s.Emit(Event{Kind: EvNodeExpanded})
	s.End(0, 0, "")
}

func TestNilSpanZeroAlloc(t *testing.T) {
	var s *Span
	allocs := testing.AllocsPerRun(1000, func() {
		s.Emit(Event{Kind: EvNodeExpanded, Level: 3, New: 1.5})
		s.End(0, 0, "")
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per op, want 0", allocs)
	}
}

func TestSpanStamping(t *testing.T) {
	tr := &captureTracer{}
	s := StartSpan(tr, "heap k=10")
	s.Emit(Event{Kind: EvNodeExpanded, Level: 2, New: 4})
	s.Emit(Event{Kind: EvBoundTightened, Old: 9, New: 4, Source: SourceKHeap})
	s.End(4, 10, "")
	ev := tr.events
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	if ev[0].Kind != EvQueryStart || ev[0].Label != "heap k=10" {
		t.Fatalf("first event = %+v, want query_start with label", ev[0])
	}
	if ev[3].Kind != EvQueryEnd || ev[3].N != 10 || ev[3].New != 4 {
		t.Fatalf("last event = %+v, want query_end n=10 new=4", ev[3])
	}
	for i, e := range ev {
		if e.Span != ev[0].Span {
			t.Errorf("event %d span id %d, want %d", i, e.Span, ev[0].Span)
		}
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d seq %d, want %d", i, e.Seq, i+1)
		}
		if e.Nanos < 0 {
			t.Errorf("event %d has negative relative time", i)
		}
	}
	s2 := StartSpan(tr, "other")
	if tr.events[4].Span == ev[0].Span {
		t.Fatalf("second span reused id %d", ev[0].Span)
	}
	_ = s2
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvQueryStart, EvQueryEnd, EvNodeExpanded, EvBoundTightened,
		EvHeapHighWater, EvLeafSweepPruned, EvCacheHit, EvCacheMiss, EvPoolEvict}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(200).String() != "unknown" {
		t.Errorf("out-of-range kind should stringify as unknown")
	}
}

func TestJSONLWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	s := StartSpan(w, `label with "quotes" and
newline`)
	s.Emit(Event{Kind: EvNodeExpanded, Level: 1, Level2: 1, New: 2.5})
	s.Emit(Event{Kind: EvBoundTightened, Old: math.Inf(1), New: 2.5, Source: SourceMinMax})
	s.End(2.5, 1, "")
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	kinds := []string{"query_start", "node_expanded", "bound_tightened", "query_end"}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v (%s)", i+1, err, line)
		}
		if m["kind"] != kinds[i] {
			t.Errorf("line %d kind = %v, want %s", i+1, m["kind"], kinds[i])
		}
	}
	var bt map[string]any
	_ = json.Unmarshal([]byte(lines[2]), &bt)
	if bt["old"] != nil {
		t.Errorf("infinite old bound should encode as null, got %v", bt["old"])
	}
	if bt["new"] != 2.5 || bt["source"] != "minmax" {
		t.Errorf("bound_tightened line = %v", bt)
	}
}
