package exp

import (
	"fmt"
	"strings"
	"time"
)

// Table is an experiment table rendered with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// newTable creates a table with the given column headers.
func newTable(header ...string) *Table { return &Table{header: header} }

// addRow appends a row: a float64 prints to four places, a duration in
// milliseconds to three, anything else with %v.
func (t *Table) addRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3fms", float64(v)/float64(time.Millisecond))
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, hcell := range t.header {
		widths[i] = len(hcell)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
