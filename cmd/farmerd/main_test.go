package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"farmer"
)

func TestPartitionerByName(t *testing.T) {
	for _, name := range []string{"stripe", "hash", "group"} {
		p, err := farmer.PartitionerByName(name)
		if err != nil || p == nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := farmer.PartitionerByName("bogus"); err == nil {
		t.Fatal("bogus partitioner accepted")
	}
}

// TestRunServeAndDrain runs the daemon in-process: serve, feed over the
// wire, SIGTERM, assert the clean-exit code and the final checkpoint.
func TestRunServeAndDrain(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "farmerd.wal")
	const addr = "127.0.0.1:14733"
	os.Args = []string{"farmerd",
		"-addr", addr,
		"-store", wal,
		"-load", "-repair",
		"-shards", "2",
		"-partition", "hash",
		"-checkpoint", "50ms",
		"-prefetch-k", "2",
	}
	code := make(chan int, 1)
	go func() { code <- run() }()

	// Wait for the listener, then drive it like any client.
	var m *farmer.RemoteMiner
	deadline := time.Now().Add(10 * time.Second)
	for {
		var err error
		m, err = farmer.Dial(context.Background(), addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("farmerd never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	tr, err := farmer.Generate(farmer.HP(1500))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FeedBatch(context.Background(), tr.Records); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// The daemon registered its signal handler before serving, so SIGTERM
	// reaches NotifyContext, not the test binary's default action.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("farmerd exited %d", c)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("farmerd did not drain on SIGTERM")
	}

	// Drain checkpointed: the mined state reloads.
	m2, err := farmer.Open(farmer.ConfigFor(tr), farmer.WithStore(wal), farmer.WithLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	st, err := m2.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("checkpoint fed %d, want %d", st.Fed, len(tr.Records))
	}
}

// TestHelpTextUnchanged pins `farmerd -h` byte for byte to the text the
// daemon printed when its flags were still declared in this package
// (testdata/help.txt, written by commit d78dc70): 24 flags, their
// defaults and their help.
func TestHelpTextUnchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "help.txt"))
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := newFlags()
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.Usage()
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("farmerd -h changed:\n%s\nwant:\n%s", got.Bytes(), want)
	}
	if n := bytes.Count(got.Bytes(), []byte("\n  -")); n != 24 {
		t.Fatalf("farmerd declares %d flags, want 24", n)
	}
}

func TestRunUsageErrors(t *testing.T) {
	os.Args = []string{"farmerd", "stray-arg"}
	if c := run(); c != 2 {
		t.Fatalf("stray argument: exit %d, want 2", c)
	}
	os.Args = []string{"farmerd", "-partition", "bogus"}
	if c := run(); c != 2 {
		t.Fatalf("bad partitioner: exit %d, want 2", c)
	}
	os.Args = []string{"farmerd", "-shards", "-1"}
	if c := run(); c != 2 {
		t.Fatalf("negative shards: exit %d, want 2", c)
	}
	for _, flag := range []string{"-load", "-repair"} {
		os.Args = []string{"farmerd", flag}
		if c := run(); c != 2 {
			t.Fatalf("%s without -store: exit %d, want 2", flag, c)
		}
	}
	os.Args = []string{"farmerd", "-checkpoint", "1s"}
	if c := run(); c != 2 {
		t.Fatalf("-checkpoint without -store: exit %d, want 2", c)
	}
	os.Args = []string{"farmerd", "-follow", "-replicate-to", "127.0.0.1:1"}
	if c := run(); c != 2 {
		t.Fatalf("-follow with -replicate-to: exit %d, want 2", c)
	}
	// An unreachable follower is a runtime failure (exit 1), not usage.
	os.Args = []string{"farmerd", "-addr", "127.0.0.1:0", "-replicate-to", "127.0.0.1:1"}
	if c := run(); c != 1 {
		t.Fatalf("unreachable follower: exit %d, want 1", c)
	}
}
