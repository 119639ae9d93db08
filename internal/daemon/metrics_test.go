package daemon

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"farmer"
)

// scrape GETs one metrics URL and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return string(body)
}

// metricValue sums every series of name in a Prometheus text body (labeled
// series included) and reports whether any was present.
func metricValue(body, name string) (float64, bool) {
	var sum float64
	found := false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue // a longer metric name sharing the prefix
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return 0, false
		}
		sum += v
		found = true
	}
	return sum, found
}

// TestMetricsEndpointLiveScrape scrapes /metrics continuously while a
// client streams a live ingest at it in acked batches: every monotone series
// must never move backwards across scrapes (no torn reads — the scrape
// path runs concurrently with the hot path under -race in CI), and the
// final sample must account for exactly the fed trace.
func TestMetricsEndpointLiveScrape(t *testing.T) {
	addr, mAddr := freePort(t), freePort(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	var lc logCollector
	go func() {
		done <- Run(ctx, Options{Addr: addr, MetricsAddr: mAddr, Shards: 2, PrefetchK: 2, Logf: lc.logf})
	}()
	waitUp(t, addr)
	waitUp(t, mAddr)

	tr, err := farmer.Generate(farmer.HP(12000))
	if err != nil {
		t.Fatal(err)
	}
	client, err := farmer.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	feedErr := make(chan error, 1)
	go func() {
		const chunk = 512
		for lo := 0; lo < len(tr.Records); lo += chunk {
			hi := min(lo+chunk, len(tr.Records))
			if err := client.FeedBatch(ctx, tr.Records[lo:hi]); err != nil {
				feedErr <- err
				return
			}
		}
		feedErr <- nil
	}()

	// Scrape while the feed is live; monotone counters must never regress.
	monotone := []string{
		"farmer_ingest_records_total",
		"farmer_rpc_frames_total",
		"farmer_rpc_bytes_read_total",
		"farmer_prefetch_dropped_total",
		"farmer_predict_predictions_total",
	}
	last := make(map[string]float64, len(monotone))
	feeding := true
	for feeding {
		select {
		case err := <-feedErr:
			if err != nil {
				t.Fatalf("feed: %v", err)
			}
			feeding = false
		default:
			body := scrape(t, "http://"+mAddr+"/metrics")
			for _, name := range monotone {
				v, ok := metricValue(body, name)
				if !ok {
					t.Fatalf("metric %s missing from scrape:\n%s", name, body)
				}
				if v < last[name] {
					t.Fatalf("metric %s went backwards: %v -> %v", name, last[name], v)
				}
				last[name] = v
			}
		}
	}

	// Final state: the ingest counter matches the trace exactly, the wire
	// accounting saw traffic, and the prefetch queue gauge is present.
	body := scrape(t, "http://"+mAddr+"/metrics")
	if v, _ := metricValue(body, "farmer_ingest_records_total"); v != float64(len(tr.Records)) {
		t.Fatalf("farmer_ingest_records_total = %v, want %d", v, len(tr.Records))
	}
	if v, _ := metricValue(body, "farmer_rpc_frames_total"); v < float64(len(tr.Records))/512 {
		t.Fatalf("farmer_rpc_frames_total = %v, too low for the fed chunks", v)
	}
	if _, ok := metricValue(body, "farmer_prefetch_queue_depth"); !ok {
		t.Fatalf("prefetch queue gauge missing:\n%s", body)
	}
	if !strings.Contains(body, "farmer_checkpoint_age_seconds") {
		t.Fatalf("checkpoint age gauge missing:\n%s", body)
	}

	// The JSON view decodes and carries the same ingest count.
	var parsed struct {
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(scrape(t, "http://"+mAddr+"/metrics.json")), &parsed); err != nil {
		t.Fatalf("metrics.json did not parse: %v", err)
	}
	jsonIngest := -1.0
	for _, m := range parsed.Metrics {
		if m.Name == "farmer_ingest_records_total" {
			jsonIngest = m.Value
		}
	}
	if jsonIngest != float64(len(tr.Records)) {
		t.Fatalf("metrics.json farmer_ingest_records_total = %v, want %d", jsonIngest, len(tr.Records))
	}

	client.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon run: %v", err)
	}
	if !lc.contains("metrics endpoint on") {
		t.Fatalf("daemon never logged the metrics endpoint: %v", lc.lines)
	}
}

// TestMetricsAddrConflict: a taken metrics port is a runtime failure, not a
// silent no-endpoint daemon.
func TestMetricsAddrConflict(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	err = Run(context.Background(), Options{Addr: freePort(t), MetricsAddr: lis.Addr().String()})
	if err == nil || !strings.Contains(err.Error(), "metrics listen") {
		t.Fatalf("err = %v, want a metrics listen failure", err)
	}
}
