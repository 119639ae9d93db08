// Package obs is the live-metrics registry behind farmerd's -metrics-addr
// endpoint and the MsgObs control-plane frame. It is built for hot paths:
// updating a metric is one atomic operation on a cache-line-padded counter
// (no locks, no allocation, no map lookups), while everything that costs
// anything — name/label resolution, gauge callbacks, snapshot encoding —
// happens only at registration or scrape time.
//
// Three shapes cover every layer:
//
//   - Counter / Histogram: monotone atomics the instrumented code holds a
//     pointer to (resolved once, at construction). Both are nil-safe — a
//     layer that was never attached to a registry updates a nil pointer,
//     which is a no-op — so instrumentation needs no "is obs enabled?"
//     branches beyond the predictable nil check.
//   - GaugeFunc / CounterFunc: callbacks sampled at scrape time for values
//     some layer already maintains (dispatcher position, model memory,
//     checkpoint age). They add literally zero work to the hot path.
//   - GaugeEach / CounterEach: callbacks that emit a dynamic label set per
//     scrape (per-shard mailbox depth, per-follower replication lag,
//     per-tenant feeds) without pre-registering one series per member.
//
// Snapshot flattens the registry into samples; WritePrometheus and
// WriteJSON render them in Prometheus text exposition format and a JSON
// variant respectively.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes how a sample should be interpreted (and rendered in
// the Prometheus TYPE line).
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one name=value pair attached to a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotone counter safe for concurrent use — the one atomic
// counter in the repository, held by instrumented layers and pipeline
// stages alike (tap and queue drops, mailbox evictions, checkpoint counts).
// The zero value is usable; a nil *Counter is a no-op, so instrumented
// layers work unattached. The atomic is padded out to its own cache line:
// a bare []atomic.Uint64 packs eight shards' counters into 64 bytes, and
// every Add from a shard worker would become a cross-core transfer.
type Counter struct {
	n atomic.Uint64
	_ [56]byte
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds delta.
func (c *Counter) Add(delta uint64) {
	if c != nil {
		c.n.Add(delta)
	}
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// histBuckets is one bucket per power of two: bucket i counts observations
// v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0 holds v==0.
const histBuckets = 65

// Histogram counts observations into power-of-two buckets. Observe is one
// atomic add (bucket pick is two instructions); nil *Histogram is a no-op.
// Rendered as a cumulative Prometheus histogram with le="2^i" bounds.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
}

// BucketCount is one cumulative histogram bucket in a Sample.
type BucketCount struct {
	LE    float64 `json:"-"` // upper bound, +Inf for the last
	Count uint64  `json:"count"`
}

// MarshalJSON renders the bucket with its bound as a string ("+Inf" for the
// tail bucket) — encoding/json refuses infinite float64s.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		LE    string `json:"le"`
		Count uint64 `json:"count"`
	}{fmtValue(b.LE), b.Count})
}

// Sample is one flattened metric value from Snapshot.
type Sample struct {
	Name    string        `json:"name"`
	Labels  []Label       `json:"labels,omitempty"`
	Kind    string        `json:"kind"`
	Value   float64       `json:"value"`
	Buckets []BucketCount `json:"buckets,omitempty"` // histograms only
	Count   uint64        `json:"count,omitempty"`   // histograms only
}

// EmitFunc receives samples from an Each-style callback.
type EmitFunc func(labels []Label, value float64)

// metric is one registered entry. Exactly one of ctr/hist/fn/each is set.
type metric struct {
	name   string
	labels []Label
	kind   Kind
	ctr    *Counter
	hist   *Histogram
	fn     func() float64
	each   func(emit EmitFunc)
}

// Registry holds registered metrics. Registration takes a mutex (cold
// path, usually once at startup); metric updates never touch the registry
// at all — they go straight to the atomic the caller holds. Snapshot and
// the writers hold the mutex only to walk the registration list.
type Registry struct {
	mu    sync.Mutex
	order []*metric
	byKey map[string]*metric
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// key canonicalizes name+labels for get-or-create dedupe.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('\xff')
		b.WriteString(l.Key)
		b.WriteByte('\xfe')
		b.WriteString(l.Value)
	}
	return b.String()
}

// register installs m under its key, or returns the existing entry with
// the same name+labels. Nil registry returns nil (callers then hold nil
// counters, which no-op).
func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(m.name, m.labels)
	if prev, ok := r.byKey[k]; ok {
		return prev
	}
	r.byKey[k] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns the counter registered under name+labels, creating it on
// first use. Safe to call from a nil registry (returns nil, a no-op
// counter).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(&metric{name: name, labels: labels, kind: KindCounter, ctr: &Counter{}})
	return m.ctr
}

// Histogram returns the histogram registered under name+labels, creating
// it on first use. Nil registry returns a nil no-op histogram.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	m := r.register(&metric{name: name, labels: labels, kind: KindHistogram, hist: &Histogram{}})
	return m.hist
}

// GaugeFunc registers a gauge whose value is fn(), sampled at scrape time.
// fn must be safe for concurrent use and should only read atomics or take
// leaf locks — it runs on the scrape path while the hot path is live.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, labels: labels, kind: KindGauge, fn: fn})
}

// CounterFunc registers a monotone value some layer already maintains
// (e.g. the dispatcher's record position), exposed as a counter without
// the layer double-counting into a second atomic.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, labels: labels, kind: KindCounter, fn: fn})
}

// GaugeEach registers a callback that emits a dynamic set of labeled gauge
// samples per scrape — one series per shard, follower, or tenant, without
// registering members up front.
func (r *Registry) GaugeEach(name string, fn func(emit EmitFunc)) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, kind: KindGauge, each: fn})
}

// CounterEach is GaugeEach with counter semantics (every emitted value is
// monotone per label set).
func (r *Registry) CounterEach(name string, fn func(emit EmitFunc)) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, kind: KindCounter, each: fn})
}

// Snapshot flattens every registered metric into samples, in registration
// order (Each-style metrics emit their samples sorted by label for
// deterministic output). Safe to call concurrently with hot-path updates;
// values are individually atomic (a counter read mid-Add returns either
// the old or new value, never a torn one).
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	order := append([]*metric(nil), r.order...)
	r.mu.Unlock()
	var out []Sample
	for _, m := range order {
		switch {
		case m.ctr != nil:
			out = append(out, Sample{Name: m.name, Labels: m.labels, Kind: m.kind.String(), Value: float64(m.ctr.Load())})
		case m.hist != nil:
			out = append(out, histSample(m))
		case m.fn != nil:
			out = append(out, Sample{Name: m.name, Labels: m.labels, Kind: m.kind.String(), Value: m.fn()})
		case m.each != nil:
			var batch []Sample
			m.each(func(labels []Label, v float64) {
				ls := append([]Label(nil), labels...)
				batch = append(batch, Sample{Name: m.name, Labels: ls, Kind: m.kind.String(), Value: v})
			})
			sort.Slice(batch, func(i, j int) bool {
				return labelKey(batch[i].Labels) < labelKey(batch[j].Labels)
			})
			out = append(out, batch...)
		}
	}
	return out
}

func labelKey(ls []Label) string { return key("", ls) }

// histSample renders a histogram into cumulative buckets, collapsing empty
// leading/trailing buckets so output stays small.
func histSample(m *metric) Sample {
	var counts [histBuckets]uint64
	var total uint64
	for i := range m.hist.buckets {
		counts[i] = m.hist.buckets[i].Load()
		total += counts[i]
	}
	s := Sample{Name: m.name, Labels: m.labels, Kind: m.kind.String(), Count: total, Value: float64(m.hist.sum.Load())}
	var cum uint64
	for i, c := range counts {
		cum += c
		if c == 0 && cum != total {
			continue // skip empty buckets before the tail
		}
		le := math.Inf(1)
		if i < histBuckets-1 {
			le = math.Pow(2, float64(i))
		}
		s.Buckets = append(s.Buckets, BucketCount{LE: le, Count: cum})
		if cum == total {
			break
		}
	}
	if n := len(s.Buckets); n == 0 || !math.IsInf(s.Buckets[n-1].LE, 1) {
		s.Buckets = append(s.Buckets, BucketCount{LE: math.Inf(1), Count: total})
	}
	return s
}

// escapeLabel escapes a label value for the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// writeLabels renders {k="v",...} (empty string when no labels).
func writeLabels(b *strings.Builder, labels []Label, extra ...Label) {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// fmtValue renders a float the way Prometheus expects (integers without a
// trailing .0, +Inf spelled that way).
func fmtValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the current snapshot in Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastType := ""
	for _, s := range r.Snapshot() {
		if tl := s.Name + " " + s.Kind; tl != lastType {
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, s.Kind)
			lastType = tl
		}
		if s.Kind == KindHistogram.String() {
			for _, bc := range s.Buckets {
				b.WriteString(s.Name)
				b.WriteString("_bucket")
				writeLabels(&b, s.Labels, L("le", fmtValue(bc.LE)))
				fmt.Fprintf(&b, " %d\n", bc.Count)
			}
			b.WriteString(s.Name)
			b.WriteString("_sum")
			writeLabels(&b, s.Labels)
			fmt.Fprintf(&b, " %s\n", fmtValue(s.Value))
			b.WriteString(s.Name)
			b.WriteString("_count")
			writeLabels(&b, s.Labels)
			fmt.Fprintf(&b, " %d\n", s.Count)
			continue
		}
		b.WriteString(s.Name)
		writeLabels(&b, s.Labels)
		b.WriteByte(' ')
		b.WriteString(fmtValue(s.Value))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders the current snapshot as a JSON object
// {"metrics":[...]} — same samples as the Prometheus view, for consumers
// that would rather not parse the text format.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	if snap == nil {
		snap = []Sample{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Metrics []Sample `json:"metrics"`
	}{snap})
}
