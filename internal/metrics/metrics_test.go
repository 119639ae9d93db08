package metrics

import (
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistMeanMax(t *testing.T) {
	var h LatencyHist
	h.Observe(1 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Max() != 3*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
}

func TestHistQuantileMonotone(t *testing.T) {
	var h LatencyHist
	rng := rand.New(rand.NewPCG(2, 2))
	for i := 0; i < 5000; i++ {
		h.Observe(time.Duration(rng.ExpFloat64()*2000) * time.Microsecond)
	}
	q50 := h.Quantile(0.5)
	q95 := h.Quantile(0.95)
	q99 := h.Quantile(0.99)
	if q50 > q95 || q95 > q99 {
		t.Fatalf("quantiles not monotone: %v %v %v", q50, q95, q99)
	}
	if h.Quantile(1.0) > h.Max()*2 {
		t.Fatalf("q100 = %v far above max %v", h.Quantile(1.0), h.Max())
	}
}

func TestHistQuantileBracketsExactValue(t *testing.T) {
	var h LatencyHist
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Microsecond)
	}
	q := h.Quantile(0.5)
	// 100µs lives in bucket with upper bound 128µs.
	if q < 100*time.Microsecond || q > 256*time.Microsecond {
		t.Fatalf("quantile = %v, want within a bucket of 100µs", q)
	}
}

func TestHistNegativeClamped(t *testing.T) {
	var h LatencyHist
	h.Observe(-time.Second)
	if h.Max() != 0 {
		t.Fatalf("negative not clamped: %v", h.Max())
	}
}

func TestHistEmptyQuantile(t *testing.T) {
	var h LatencyHist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty hist not zero")
	}
}

// Property: quantile never decreases in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		var h LatencyHist
		rng := rand.New(rand.NewPCG(seed, 7))
		for i := 0; i < int(n)+1; i++ {
			h.Observe(time.Duration(rng.IntN(1_000_000)) * time.Microsecond)
		}
		prev := time.Duration(0)
		for q := 0.1; q <= 1.0; q += 0.1 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Trace", "Hit Ratio", "Latency")
	tab.AddRow("HP", 0.55214, 1500*time.Microsecond)
	tab.AddRow("INS", 0.93884, 900*time.Microsecond)
	out := tab.String()
	if !strings.Contains(out, "0.5521") || !strings.Contains(out, "1.500ms") {
		t.Fatalf("formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
}
