// Package metrics provides the small statistics toolkit the experiment
// harness uses: a log-bucketed latency histogram with percentile
// estimation, and fixed-width table rendering for the paper's figures and
// tables. Nothing here is safe for concurrent use — the harness is
// single-threaded; live counters shared between goroutines are
// internal/obs's.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// LatencyHist is a log2-bucketed duration histogram from 1µs to ~17min.
type LatencyHist struct {
	buckets [31]uint64
	count   uint64
	sum     time.Duration
	max     time.Duration
}

func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := 0
	for us > 0 && b < 30 {
		us >>= 1
		b++
	}
	return b
}

// Observe records one latency.
func (h *LatencyHist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count reports the number of observations.
func (h *LatencyHist) Count() uint64 { return h.count }

// Mean reports the average latency.
func (h *LatencyHist) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max reports the largest observation.
func (h *LatencyHist) Max() time.Duration { return h.max }

// Quantile estimates the q-quantile (0 < q <= 1) from bucket upper bounds.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	if h.count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	var acc uint64
	for b, n := range h.buckets {
		acc += n
		if acc >= target {
			// Upper bound of bucket b is 2^b microseconds.
			return time.Duration(1<<uint(b)) * time.Microsecond
		}
	}
	return h.max
}

// Table renders aligned experiment tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
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
