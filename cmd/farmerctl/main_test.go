package main

import (
	"context"
	"testing"
	"time"

	"farmer/internal/daemon"
)

func TestRunExperimentsExitCodes(t *testing.T) {
	if c := runExperiments(nil); c != 2 {
		t.Fatalf("no experiments: exit %d, want 2", c)
	}
	if c := runExperiments([]string{"nonsense"}); c != 2 {
		t.Fatalf("unknown experiment: exit %d, want 2", c)
	}
	if c := runExperiments([]string{"-shards", "-1", "fig1"}); c != 2 {
		t.Fatalf("negative shards: exit %d, want 2", c)
	}
	if c := runExperiments([]string{"-minetime", "-1s", "asynclat"}); c != 2 {
		t.Fatalf("negative minetime: exit %d, want 2", c)
	}
	if c := runExperiments([]string{"-servers", "-3", "cluster"}); c != 2 {
		t.Fatalf("negative servers: exit %d, want 2", c)
	}
	// table2 is the paper's worked example — cheap and deterministic.
	if c := runExperiments([]string{"table2"}); c != 0 {
		t.Fatalf("table2: exit %d, want 0", c)
	}
}

func TestPingExitCodes(t *testing.T) {
	if c := runPing([]string{"stray"}); c != 2 {
		t.Fatalf("stray argument: exit %d, want 2", c)
	}
	if c := runPing([]string{"-n", "0"}); c != 2 {
		t.Fatalf("zero count: exit %d, want 2", c)
	}
	if c := runPing([]string{"-addr", "127.0.0.1:1", "-timeout", "500ms"}); c != 1 {
		t.Fatalf("unreachable server: exit %d, want 1", c)
	}
}

func TestTenantsExitCodes(t *testing.T) {
	if c := runTenants([]string{"stray"}); c != 2 {
		t.Fatalf("stray argument: exit %d, want 2", c)
	}
	if c := runTenants([]string{"-addr", "127.0.0.1:1", "-timeout", "500ms"}); c != 1 {
		t.Fatalf("unreachable server: exit %d, want 1", c)
	}
}

// serve runs the daemon in process (what a farmerd started with these
// options does) and returns its stop: cancel, then the drain's outcome.
func serve(t *testing.T, o daemon.Options) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- daemon.Run(ctx, o) }()
	return func() {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exited with %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not drain")
		}
	}
}

// TestServePingTenantsAuthLoopback wires the multi-tenant edge end to end
// inside one binary: a daemon with a tenants directory and two auth grants,
// pings under good and bad tokens/tenants, a tenants listing, then a clean
// drain.
func TestServePingTenantsAuthLoopback(t *testing.T) {
	const addr = "127.0.0.1:14736"
	stop := serve(t, daemon.Options{Addr: addr, TenantsDir: t.TempDir(),
		Auth: []string{"root=*", "alpha-token=alpha"}})

	ping := func(extra ...string) int {
		return runPing(append([]string{"-addr", addr, "-n", "1", "-timeout", "2s"}, extra...))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if c := ping("-token", "root"); c == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("serve never answered an authorized ping")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if c := ping(); c != 1 {
		t.Fatalf("unauthenticated ping: exit %d, want 1", c)
	}
	if c := ping("-token", "wrong"); c != 1 {
		t.Fatalf("unknown token: exit %d, want 1", c)
	}
	if c := ping("-token", "alpha-token", "-tenant", "beta"); c != 1 {
		t.Fatalf("out-of-grant tenant: exit %d, want 1", c)
	}
	if c := ping("-token", "alpha-token", "-tenant", "alpha"); c != 0 {
		t.Fatalf("granted tenant ping: exit %d, want 0", c)
	}
	if c := runTenants([]string{"-addr", addr, "-token", "root", "-timeout", "2s"}); c != 0 {
		t.Fatalf("tenants listing: exit %d, want 0", c)
	}
	stop()
}

// TestServePingLoopback wires the daemon and the ping subcommand together:
// serve in one goroutine, ping it, stop it, assert both end clean.
func TestServePingLoopback(t *testing.T) {
	const addr = "127.0.0.1:14734"
	stop := serve(t, daemon.Options{Addr: addr, Shards: 2})

	deadline := time.Now().Add(10 * time.Second)
	for {
		if c := runPing([]string{"-addr", addr, "-n", "2", "-timeout", "2s"}); c == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("serve never answered ping")
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop()
}
