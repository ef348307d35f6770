package main

import (
	"testing"

	"repro/internal/lint"
)

// TestDefaultSelectionCoversGroups pins what lets ci.sh lint load the
// module once: the default run must contain every member of every group
// alias, so no group needs a `-checks <group>` pass of its own to stay a
// hard gate. Trimming the default set without putting that pass back
// fails here.
func TestDefaultSelectionCoversGroups(t *testing.T) {
	def, err := selectChecks("")
	if err != nil {
		t.Fatal(err)
	}
	inDefault := make(map[string]bool, len(def))
	for _, c := range def {
		inDefault[c.Name()] = true
	}
	for group, members := range lint.CheckGroups() {
		sel, err := selectChecks(group)
		if err != nil {
			t.Fatalf("group %s: %v", group, err)
		}
		if len(sel) != len(members) {
			t.Errorf("group %s selects %d checks, declares %d", group, len(sel), len(members))
		}
		for _, c := range sel {
			if !inDefault[c.Name()] {
				t.Errorf("default run lacks %s of group %s: `ci.sh lint` would no longer gate it", c.Name(), group)
			}
		}
	}
	if _, err := selectChecks("nosuchcheck"); err == nil {
		t.Error("unknown check name accepted")
	}
}
