package daemon

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"farmer"
)

// freePort reserves a loopback port and releases it for the daemon to take
// (a small race, but the kernel rarely reissues the port that fast).
func freePort(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

// logCollector is a concurrency-safe Logf sink.
type logCollector struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCollector) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCollector) contains(sub string) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, l := range lc.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

func TestRunUsageValidation(t *testing.T) {
	ctx := context.Background()
	cases := []Options{
		{Addr: "x", Load: true},                               // -load without -store
		{Addr: "x", Repair: true},                             // -repair without -store
		{Addr: "x", Ckpt: time.Second},                        // -checkpoint without -store
		{Addr: "x", Shards: -1},                               // negative shards
		{Addr: "x", Follow: true, ReplicateTo: []string{"y"}}, // follower replicating onward
		{Addr: "x", ReplicateTo: []string{""}},                // empty follower address
		{Addr: "x", TLSCert: "cert.pem"},                      // cert without key
		{Addr: "x", TLSKey: "key.pem"},                        // key without cert
		{Addr: "x", MaxTenants: 4},                            // tenant knob without -tenants-dir
		{Addr: "x", TenantIdle: time.Minute},                  // tenant knob without -tenants-dir
		{Addr: "x", TenantMaxMemory: 1 << 20},                 // budget without -tenants-dir
		{Addr: "x", Auth: []string{"no-equals"}},              // malformed auth grant
		{Addr: "x", Auth: []string{"=tenant"}},                // empty token
		{Addr: "x", Auth: []string{"tok="}},                   // empty grant
		{Addr: "x", Auth: []string{"tok=bad tenant"}},         // invalid tenant id in grant
	}
	for i, o := range cases {
		if err := Run(ctx, o); !errors.Is(err, ErrUsage) {
			t.Fatalf("case %d: err = %v, want ErrUsage", i, err)
		}
	}
}

func TestParseAuthSpec(t *testing.T) {
	tok, tenants, err := ParseAuthSpec("root=*")
	if err != nil || tok != "root" || len(tenants) != 1 || tenants[0] != "*" {
		t.Fatalf("root=*: %q %v %v", tok, tenants, err)
	}
	tok, tenants, err = ParseAuthSpec("t1=alpha,beta,")
	if err != nil || tok != "t1" || len(tenants) != 2 || tenants[0] != "alpha" || tenants[1] != "beta" {
		t.Fatalf("t1=alpha,beta,: %q %v %v", tok, tenants, err)
	}
	for _, bad := range []string{"", "noeq", "=x", "tok=", "tok=.dot", "tok=sp ace"} {
		if _, _, err := ParseAuthSpec(bad); err == nil {
			t.Fatalf("ParseAuthSpec(%q) accepted", bad)
		}
	}
}

// TestRunReplicatedPair runs a follower and a primary through the full
// daemon bootstrap (the farmerd code path minus flag parsing), drives the
// pair over the wire, kills the primary, and finishes against the promoted
// follower — with the follower checkpointing the replicated state into its
// OWN store on drain.
func TestRunReplicatedPair(t *testing.T) {
	dir := t.TempDir()
	fAddr, pAddr := freePort(t), freePort(t)
	fWAL := filepath.Join(dir, "follower.wal")
	var flog, plog logCollector

	fCtx, fCancel := context.WithCancel(context.Background())
	defer fCancel()
	fDone := make(chan error, 1)
	go func() {
		fDone <- Run(fCtx, Options{Addr: fAddr, Follow: true, Shards: 2, StorePath: fWAL, Logf: flog.logf})
	}()

	// Wait for the follower to listen, then start the primary (which must
	// attach at startup).
	waitUp(t, fAddr)
	pCtx, pCancel := context.WithCancel(context.Background())
	defer pCancel()
	pDone := make(chan error, 1)
	go func() {
		pDone <- Run(pCtx, Options{Addr: pAddr, ReplicateTo: []string{fAddr}, Shards: 2, Logf: plog.logf})
	}()
	waitUp(t, pAddr)

	ctx := context.Background()
	tr, err := farmer.Generate(farmer.HP(4000))
	if err != nil {
		t.Fatal(err)
	}
	client, err := farmer.Dial(ctx, pAddr, farmer.WithFailover(fAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	half := len(tr.Records) / 2
	if err := client.FeedBatch(ctx, tr.Records[:half]); err != nil {
		t.Fatal(err)
	}

	// Kill the primary; the client fails over and the follower promotes.
	pCancel()
	if err := <-pDone; err != nil {
		t.Fatalf("primary run: %v", err)
	}
	lo := half
	for lo < len(tr.Records) {
		err := client.FeedBatch(ctx, tr.Records[lo:])
		if err == nil {
			lo = len(tr.Records)
			break
		}
		if !errors.Is(err, farmer.ErrDisconnected) {
			t.Fatalf("post-kill feed: %v", err)
		}
		st, serr := client.Stats(ctx)
		if serr != nil {
			t.Fatalf("failover stats: %v", serr)
		}
		lo = int(st.Fed)
	}
	st, err := client.Stats(ctx)
	if err != nil || st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("survivor fed %d (err %v), want %d", st.Fed, err, len(tr.Records))
	}
	client.Close()

	// Drain the follower; its store must hold the full replicated state.
	fCancel()
	if err := <-fDone; err != nil {
		t.Fatalf("follower run: %v", err)
	}
	if !flog.contains("promotable") || !flog.contains("promoted") {
		t.Fatalf("follower log missed the promotion lifecycle: %v", flog.lines)
	}
	if !plog.contains("caught up and attached") {
		t.Fatalf("primary log missed the attach: %v", plog.lines)
	}
	m, err := farmer.Open(farmer.DefaultConfig(), farmer.WithShards(2),
		farmer.WithStore(fWAL), farmer.WithLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if mst, _ := m.Stats(context.Background()); mst.Fed != uint64(len(tr.Records)) {
		t.Fatalf("follower checkpoint fed %d, want %d", mst.Fed, len(tr.Records))
	}
}

// TestRunPrimaryRefusesDeadFollower: a primary whose follower is absent at
// startup is a runtime failure, not a hang.
func TestRunPrimaryRefusesDeadFollower(t *testing.T) {
	err := Run(context.Background(), Options{Addr: freePort(t), ReplicateTo: []string{"127.0.0.1:1"}})
	if err == nil || errors.Is(err, ErrUsage) {
		t.Fatalf("err = %v, want a runtime attach failure", err)
	}
}

func waitUp(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never came up", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
