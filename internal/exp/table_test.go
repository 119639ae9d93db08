package exp

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tab := newTable("Trace", "Hit Ratio", "Latency")
	tab.addRow("HP", 0.55214, 1500*time.Microsecond)
	tab.addRow("INS", 0.93884, 900*time.Microsecond)
	out := tab.String()
	if !strings.Contains(out, "0.5521") || !strings.Contains(out, "1.500ms") {
		t.Fatalf("formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Every line pads each column to its widest cell.
	for _, l := range lines {
		if len(l) != len(lines[0]) {
			t.Fatalf("ragged line %q beside header %q:\n%s", l, lines[0], out)
		}
	}
}
