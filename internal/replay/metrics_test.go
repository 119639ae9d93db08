package replay

// Metrics smoke over a real replicated pair: the primary's /metrics endpoint
// must account for the whole fed trace, see its follower, and report the
// per-follower lag gauge back at zero once the last batch is acked.
// Runs in the CI failover job next to the SIGKILL proof.

import (
	"context"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"farmer"
	"farmer/internal/tracegen"
)

// scrapeMetrics GETs the Prometheus view of a farmerd metrics endpoint.
func scrapeMetrics(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// seriesValue sums every series of name in a Prometheus text body and
// reports whether any was present.
func seriesValue(body, name string) (float64, bool) {
	var sum float64
	found := false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
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

func TestReplicationLagMetricsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "farmerd")
	build := exec.Command("go", "build", "-o", bin, "farmer/cmd/farmerd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building farmerd: %v\n%s", err, out)
	}

	follower := startFarmerdProc(t, bin, "-follow", "-shards", "2")
	defer follower.stop()
	primary := startFarmerdProc(t, bin, "-shards", "2",
		"-replicate-to", follower.addr, "-metrics-addr", "127.0.0.1:0")
	defer primary.stop()
	if primary.metricsAddr == "" {
		t.Fatal("primary never announced its metrics endpoint")
	}

	tr := tracegen.HP(8000).MustGenerate()
	ctx := context.Background()
	client, err := farmer.Dial(ctx, primary.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const chunk = 512
	for lo := 0; lo < len(tr.Records); lo += chunk {
		hi := min(lo+chunk, len(tr.Records))
		if err := client.FeedBatch(ctx, tr.Records[lo:hi]); err != nil {
			t.Fatalf("feed at record %d: %v", lo, err)
		}
	}

	// Every fed record is acked, and acks imply replication — the lag gauge
	// must return to zero. Poll briefly for the follower's final ack frame.
	deadline := time.Now().Add(10 * time.Second)
	var body string
	for {
		body = scrapeMetrics(t, primary.metricsAddr)
		lag, ok := seriesValue(body, "farmer_repl_lag_records")
		if ok && lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication lag never returned to 0 (present=%v lag=%v):\n%s", ok, lag, body)
		}
		time.Sleep(100 * time.Millisecond)
	}

	if v, _ := seriesValue(body, "farmer_repl_followers"); v != 1 {
		t.Fatalf("farmer_repl_followers = %v, want 1", v)
	}
	if !strings.Contains(body, `farmer_repl_lag_records{follower="`) {
		t.Fatalf("lag gauge missing its follower label:\n%s", body)
	}
	if v, _ := seriesValue(body, "farmer_ingest_records_total"); v != float64(len(tr.Records)) {
		t.Fatalf("farmer_ingest_records_total = %v, want %d", v, len(tr.Records))
	}
}
