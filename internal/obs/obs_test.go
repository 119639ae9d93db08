package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Load() != 0 {
		t.Fatal("nil counter loaded nonzero")
	}
	var h *Histogram
	h.Observe(42)
	var r *Registry
	if r.Counter("x") != nil {
		t.Fatal("nil registry returned a counter")
	}
	if r.Histogram("x") != nil {
		t.Fatal("nil registry returned a histogram")
	}
	r.GaugeFunc("x", func() float64 { return 1 })
	r.CounterFunc("x", func() float64 { return 1 })
	r.GaugeEach("x", func(EmitFunc) {})
	r.CounterEach("x", func(EmitFunc) {})
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshotted samples")
	}
}

func TestCounterAndDedupe(t *testing.T) {
	r := New()
	a := r.Counter("reqs", L("tenant", "alpha"))
	b := r.Counter("reqs", L("tenant", "alpha"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	other := r.Counter("reqs", L("tenant", "beta"))
	if a == other {
		t.Fatal("distinct labels shared a counter")
	}
	a.Inc()
	a.Add(2)
	other.Inc()
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d samples, want 2", len(snap))
	}
	if snap[0].Value != 3 || snap[1].Value != 1 {
		t.Fatalf("values %v %v, want 3 1", snap[0].Value, snap[1].Value)
	}
	if snap[0].Kind != "counter" {
		t.Fatalf("kind %q, want counter", snap[0].Kind)
	}
}

func TestGaugeAndCounterFunc(t *testing.T) {
	r := New()
	v := 11.0
	r.GaugeFunc("depth", func() float64 { return v })
	r.CounterFunc("pos", func() float64 { return 2 * v })
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Value != 11 || snap[1].Value != 22 {
		t.Fatalf("snapshot %+v", snap)
	}
	v = 13
	snap = r.Snapshot()
	if snap[0].Value != 13 || snap[1].Value != 26 {
		t.Fatalf("funcs not re-sampled: %+v", snap)
	}
}

func TestEachEmitsSortedDynamicSeries(t *testing.T) {
	r := New()
	r.GaugeEach("mailbox", func(emit EmitFunc) {
		// Emitted unsorted on purpose: Snapshot must order by label.
		emit([]Label{L("shard", "1")}, 5)
		emit([]Label{L("shard", "0")}, 3)
	})
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d samples, want 2", len(snap))
	}
	if snap[0].Labels[0].Value != "0" || snap[1].Labels[0].Value != "1" {
		t.Fatalf("each samples unsorted: %+v", snap)
	}
	if snap[0].Value != 3 || snap[1].Value != 5 {
		t.Fatalf("each values %v %v", snap[0].Value, snap[1].Value)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	for _, v := range []uint64{0, 1, 2, 3, 900} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot %+v", snap)
	}
	s := snap[0]
	if s.Count != 5 || s.Value != 906 {
		t.Fatalf("count %d sum %v, want 5 906", s.Count, s.Value)
	}
	// Bucket i counts values with bits.Len64(v) == i, so cumulatively:
	// le=1 holds {0}, le=2 adds {1}, le=4 adds {2,3}, the tail all five.
	want := map[float64]uint64{1: 1, 2: 2, 4: 4}
	for _, b := range s.Buckets {
		if w, ok := want[b.LE]; ok && b.Count != w {
			t.Fatalf("bucket le=%v count %d, want %d", b.LE, b.Count, w)
		}
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.Count != 5 {
		t.Fatalf("tail bucket count %d, want 5", last.Count)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := New()
	r.Counter("farmer_frames_total").Add(9)
	r.GaugeFunc("farmer_depth", func() float64 { return 1.5 }, L("shard", "0"))
	r.Histogram("farmer_ckpt_ms").Observe(3)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE farmer_frames_total counter",
		"farmer_frames_total 9",
		"# TYPE farmer_depth gauge",
		`farmer_depth{shard="0"} 1.5`,
		"# TYPE farmer_ckpt_ms histogram",
		`farmer_ckpt_ms_bucket{le="4"} 1`,
		`farmer_ckpt_ms_bucket{le="+Inf"} 1`,
		"farmer_ckpt_ms_sum 3",
		"farmer_ckpt_ms_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusEscapesLabels(t *testing.T) {
	r := New()
	r.Counter("m", L("k", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `m{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := New()
	r.Counter("c").Add(4)
	r.Histogram("h").Observe(10)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Metrics []struct {
			Name    string  `json:"name"`
			Kind    string  `json:"kind"`
			Value   float64 `json:"value"`
			Buckets []struct {
				LE    string `json:"le"`
				Count uint64 `json:"count"`
			} `json:"buckets"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("WriteJSON output did not parse: %v\n%s", err, b.String())
	}
	if len(parsed.Metrics) != 2 || parsed.Metrics[0].Value != 4 {
		t.Fatalf("parsed %+v", parsed)
	}
	hist := parsed.Metrics[1]
	if hist.Kind != "histogram" || len(hist.Buckets) == 0 {
		t.Fatalf("histogram sample %+v", hist)
	}
	if last := hist.Buckets[len(hist.Buckets)-1]; last.LE != "+Inf" || last.Count != 1 {
		t.Fatalf("tail bucket %+v", last)
	}
}

// TestConcurrentUpdatesAndScrapes hammers counters, a histogram, and an
// Each callback from many goroutines while scraping — the race detector's
// view of the live-scrape guarantee, plus an exact final count.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := New()
	c := r.Counter("total")
	h := r.Histogram("obs")
	r.GaugeEach("dyn", func(emit EmitFunc) {
		emit([]Label{L("i", "0")}, float64(c.Load()))
	})
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(uint64(seed*i) % 1024)
			}
		}(w + 1)
	}
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		var last float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			for _, s := range r.Snapshot() {
				if s.Name == "total" {
					if s.Value < last {
						t.Errorf("counter went backwards: %v -> %v", last, s.Value)
						return
					}
					last = s.Value
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrapes.Wait()
	if got := c.Load(); got != workers*each {
		t.Fatalf("final count %d, want %d", got, workers*each)
	}
	var total uint64
	for _, s := range r.Snapshot() {
		if s.Name == "obs" {
			total = s.Count
		}
	}
	if total != workers*each {
		t.Fatalf("histogram count %d, want %d", total, workers*each)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindCounter: "counter", KindGauge: "gauge", KindHistogram: "histogram", Kind(9): "unknown"} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestFmtValue(t *testing.T) {
	cases := map[float64]string{3: "3", 1.5: "1.5", 0: "0"}
	for v, want := range cases {
		if got := fmtValue(v); got != want {
			t.Fatalf("fmtValue(%v) = %q, want %q", v, got, want)
		}
	}
}

func ExampleRegistry_WritePrometheus() {
	r := New()
	r.Counter("farmer_rpc_frames_total").Add(3)
	r.GaugeEach("farmer_shard_mailbox_depth", func(emit EmitFunc) {
		for shard, depth := range []int{2, 0} {
			emit([]Label{L("shard", fmt.Sprint(shard))}, float64(depth))
		}
	})
	r.WritePrometheus(&strings.Builder{}) // or an http.ResponseWriter
	var b strings.Builder
	r.WritePrometheus(&b)
	fmt.Print(b.String())
	// Output:
	// # TYPE farmer_rpc_frames_total counter
	// farmer_rpc_frames_total 3
	// # TYPE farmer_shard_mailbox_depth gauge
	// farmer_shard_mailbox_depth{shard="0"} 2
	// farmer_shard_mailbox_depth{shard="1"} 0
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewPCG(2, 2))
	var largest uint64
	for i := 0; i < 5000; i++ {
		v := uint64(rng.ExpFloat64() * 2e6)
		largest = max(largest, v)
		h.Observe(v)
	}
	q50, q95, q99 := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99)
	if q50 > q95 || q95 > q99 {
		t.Fatalf("quantiles not monotone: %d %d %d", q50, q95, q99)
	}
	if q := h.Quantile(1.0); q > largest*2 {
		t.Fatalf("q100 = %d far above max %d", q, largest)
	}
}

func TestHistogramQuantileBracketsExactValue(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(100_000)
	}
	// 100000 lives in the bucket [2^16, 2^17); rank 50 of its 100 is half
	// way through it.
	if q := h.Quantile(0.5); q != 1<<16+1<<15 {
		t.Fatalf("quantile = %d, want %d", q, 1<<16+1<<15)
	}
}

// TestHistogramQuantileSeparatesRanksInOneBucket: two histograms whose p95
// lies in the same bucket [1024, 2048) but at different ranks inside it read
// different quantiles, ordered as their exact p95s are and close to them.
// Reading the bucket bound, both would say 2048.
func TestHistogramQuantileSeparatesRanksInOneBucket(t *testing.T) {
	var spread, half Histogram
	for i := range 100 {
		spread.Observe(uint64(1024 + 10*i)) // exact p95: the 95th, 1964
	}
	for i := range 50 {
		half.Observe(100)
		half.Observe(uint64(1024 + 20*i)) // exact p95: the 45th in the bucket, 1904
	}
	hi, lo := spread.Quantile(0.95), half.Quantile(0.95)
	if lo >= hi || lo < 1024 || hi >= 2048 {
		t.Fatalf("p95s %d and %d, want two values in [1024, 2048), the second lower", hi, lo)
	}
	for _, c := range []struct{ got, exact uint64 }{{hi, 1964}, {lo, 1904}} {
		if diff := math.Abs(float64(c.got) - float64(c.exact)); diff > 0.03*float64(c.exact) {
			t.Errorf("p95 %d is %.0f from the exact %d", c.got, diff, c.exact)
		}
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not zero")
	}
	h.Observe(7)
	if h.Quantile(0) != 0 || h.Quantile(2) != 8 {
		t.Fatalf("q=0 reads %d, q=2 reads %d; want 0 and the bucket bound 8", h.Quantile(0), h.Quantile(2))
	}
}

// Property: the quantile never decreases in q.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		var h Histogram
		rng := rand.New(rand.NewPCG(seed, 7))
		for i := 0; i < int(n)+1; i++ {
			h.Observe(uint64(rng.IntN(1_000_000_000)))
		}
		var prev uint64
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
