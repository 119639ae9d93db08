package replay

// The process-level failover proof: real farmerd binaries, a real SIGKILL.
// The in-process tests simulate the crash by cutting connections; this one
// builds cmd/farmerd, runs a primary→follower pair as separate processes,
// SIGKILLs the primary mid-trace, and drives the multi-address client
// through the failover. CI runs it as the failover replay smoke job.

import (
	"bufio"
	"context"
	"errors"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"farmer"
	"farmer/internal/core"
	"farmer/internal/tracegen"
)

// farmerdProc is one farmerd child process.
type farmerdProc struct {
	cmd         *exec.Cmd
	addr        string
	metricsAddr string // set when launched with -metrics-addr
	done        chan error
}

// startFarmerdProc launches a farmerd child and waits for its "serving on"
// line to learn the kernel-assigned port.
func startFarmerdProc(t *testing.T, bin string, args ...string) *farmerdProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &farmerdProc{cmd: cmd, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	metricsCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on "); i >= 0 {
				fields := strings.Fields(line[i+len("serving on "):])
				if len(fields) > 0 {
					select {
					case addrCh <- fields[0]:
					default:
					}
				}
			}
			// The metrics endpoint is announced before "serving on", so the
			// buffered send below is always drained by the time addr arrives.
			if i := strings.Index(line, "metrics endpoint on http://"); i >= 0 {
				rest := line[i+len("metrics endpoint on http://"):]
				if j := strings.Index(rest, "/"); j > 0 {
					select {
					case metricsCh <- rest[:j]:
					default:
					}
				}
			}
			t.Logf("[%s] %s", filepath.Base(cmd.Path), line)
		}
		io.Copy(io.Discard, stderr)
	}()
	go func() { p.done <- cmd.Wait() }()
	select {
	case p.addr = <-addrCh:
		select {
		case p.metricsAddr = <-metricsCh:
		default:
		}
	case err := <-p.done:
		t.Fatalf("farmerd exited before serving: %v", err)
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		t.Fatal("farmerd never reported its address")
	}
	return p
}

func (p *farmerdProc) sigkill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}

func (p *farmerdProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// TestFailoverSIGKILL: start primary+follower farmerd processes, SIGKILL
// the primary mid-trace while feeds are in flight, finish the trace against
// the promoted follower via multi-address Dial, and assert zero
// acked-record loss plus a final fingerprint equal to the sequential
// reference (no loss AND no double-mining).
func TestFailoverSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "farmerd")
	build := exec.Command("go", "build", "-o", bin, "farmer/cmd/farmerd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building farmerd: %v\n%s", err, out)
	}

	tr := tracegen.HP(30000).MustGenerate()
	mc := core.DefaultConfig()
	ref := MineSequential(tr, mc)
	ctx := context.Background()

	follower := startFarmerdProc(t, bin, "-follow", "-shards", "2")
	defer follower.stop()
	primary := startFarmerdProc(t, bin, "-shards", "2", "-replicate-to", follower.addr)
	killed := false
	defer func() {
		if !killed {
			primary.sigkill()
		}
	}()

	client, err := farmer.Dial(ctx, primary.addr, farmer.WithFailover(follower.addr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Kill from a side goroutine once a third of the trace is acked, so the
	// SIGKILL lands while feeds are genuinely in flight.
	ackedCh := make(chan uint64, 64)
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		for acked := range ackedCh {
			if acked >= uint64(len(tr.Records))/3 {
				primary.sigkill()
				return
			}
		}
	}()

	const chunk = 256
	acked := uint64(0)
	lo := 0
	failedOver := false
	for lo < len(tr.Records) {
		hi := min(lo+chunk, len(tr.Records))
		cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err := client.FeedBatch(cctx, tr.Records[lo:hi])
		cancel()
		if err == nil {
			acked = uint64(hi)
			lo = hi
			select {
			case ackedCh <- acked:
			default:
			}
			continue
		}
		if !errors.Is(err, farmer.ErrDisconnected) {
			t.Fatalf("feed failed with %v at record %d", err, lo)
		}
		failedOver = true
		// In-doubt batch: the killed primary may or may not have replicated
		// it. Resume from the survivor's exact record count.
		st, serr := client.Stats(ctx)
		if serr != nil {
			t.Fatalf("failover stats: %v", serr)
		}
		if st.Fed < acked {
			t.Fatalf("ACKED RECORD LOST: survivor holds %d records, %d were acked", st.Fed, acked)
		}
		lo = int(st.Fed)
	}
	close(ackedCh)
	<-killDone
	killed = true
	if !failedOver {
		t.Fatal("the client never observed the primary's death — the kill landed too late")
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("survivor fed %d, want %d", st.Fed, len(tr.Records))
	}
	if got := core.StateFingerprint(remoteLister{t, client}, tr.FileCount); got != ref {
		t.Fatalf("promoted follower fingerprint %#x != sequential %#x", got, ref)
	}
}
