package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestEventKindExhaustive pins EventKind.String and the JSONL encoding
// over every declared kind: a kind appended to the taxonomy without a
// name fails here instead of shipping "unknown" lines.
func TestEventKindExhaustive(t *testing.T) {
	seen := map[string]EventKind{}
	for k := EventKind(0); k < evKindCount; k++ {
		name := k.String()
		if name == "unknown" {
			t.Errorf("declared kind %d stringifies as %q; add it to EventKind.String", k, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k

		// Every declared kind must encode as one valid JSON line whose
		// "kind" field round-trips the name.
		var buf bytes.Buffer
		w := NewJSONLWriter(&buf)
		w.Event(Event{Kind: k, New: 1.5, Old: 2.5, N: 7, Label: "x"})
		if err := w.Err(); err != nil {
			t.Fatalf("kind %s: %v", name, err)
		}
		var m map[string]any
		if err := json.Unmarshal(bytes.TrimRight(buf.Bytes(), "\n"), &m); err != nil {
			t.Fatalf("kind %s encodes invalid JSON: %v (%s)", name, err, buf.String())
		}
		if m["kind"] != name {
			t.Errorf("kind %s encodes as %v", name, m["kind"])
		}
	}
	if evKindCount.String() != "unknown" {
		t.Errorf("sentinel evKindCount has a String name; keep it last and unnamed")
	}
}

// TestJSONLTraceFields pins the wire shape of a query's span: its lines
// carry the span id and sequence number and no trace, parent or worker
// keys, the shape every query path has always written.
func TestJSONLTraceFields(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	s := StartSpan(w, "q")
	s.Emit(Event{Kind: EvNodeExpanded, New: 1})
	s.End(1, 1, "")
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if want := `{"kind":"query_start","span":`; !strings.HasPrefix(lines[0], want) {
		t.Errorf("query_start line %s, want prefix %s", lines[0], want)
	}
	for _, line := range lines {
		for _, key := range []string{`"trace"`, `"parent"`, `"worker"`} {
			if strings.Contains(line, key) {
				t.Errorf("line carries %s: %s", key, line)
			}
		}
	}
}
