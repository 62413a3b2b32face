package metrics

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestSlotFieldsDocumented enforces the docs/METRICS.md contract: every
// slot-record column must appear in the document as `name`, and the
// document must state the current schema version, in its preamble and in
// the header table's version row.
func TestSlotFieldsDocumented(t *testing.T) {
	data, err := os.ReadFile("../../docs/METRICS.md")
	if err != nil {
		t.Fatalf("docs/METRICS.md must exist alongside the schema: %v", err)
	}
	doc := string(data)
	for _, name := range SlotFieldNames() {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("slot field %q is not documented in docs/METRICS.md", name)
		}
	}
	for _, want := range []string{
		fmt.Sprintf("Schema version: **%d**", SchemaVersion),
		// The header table's version row.
		fmt.Sprintf("schema version (this document: %d)", SchemaVersion),
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("docs/METRICS.md does not state %q; update the doc when bumping SchemaVersion", want)
		}
	}
}
