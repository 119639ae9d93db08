package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// LeaseGrant announces a lease term to the server: a renewal from the
// leader, or — with info.Transfer — a handoff that makes the receiving
// follower the leader of the carried epoch. Only these tests send the frame
// through a Client; the Replicator writes it itself.
func (c *Client) LeaseGrant(ctx context.Context, info LeaseInfo) error {
	_, err := c.call(ctx, MsgLeaseGrant, appendLeaseInfo(nil, &info))
	return err
}

func TestLeaseInfoCodec(t *testing.T) {
	cases := []LeaseInfo{
		{},
		{Epoch: 1, Leader: "127.0.0.1:4727", TTLMS: 2000},
		{Epoch: 7, Leader: "b", TTLMS: 1, Self: true},
		{Epoch: 1 << 60, Leader: "10.0.0.9:9999", TTLMS: 500, Transfer: true},
		{Epoch: 3, Leader: "x", Self: true, Transfer: true},
	}
	for _, want := range cases {
		got, err := decodeLeaseInfo(appendLeaseInfo(nil, &want))
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip %+v != %+v", got, want)
		}
	}

	body := appendLeaseInfo(nil, &LeaseInfo{Epoch: 2, Leader: "a"})
	if _, err := decodeLeaseInfo(body[:len(body)-1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := decodeLeaseInfo(body[:4]); err == nil {
		t.Fatal("truncated header accepted")
	}
	bad := append([]byte(nil), body...)
	bad[16] |= 1 << 7
	if _, err := decodeLeaseInfo(bad); err == nil {
		t.Fatal("unknown flag bits accepted")
	}
}

func TestLeaseReqCodec(t *testing.T) {
	for _, c := range []struct {
		epoch uint64
		cand  string
	}{{0, ""}, {1, "127.0.0.1:1"}, {1 << 40, "candidate.example:4727"}} {
		epoch, cand, err := decodeLeaseReq(appendLeaseReq(nil, c.epoch, c.cand))
		if err != nil {
			t.Fatal(err)
		}
		if epoch != c.epoch || cand != c.cand {
			t.Fatalf("round trip (%d, %q) != (%d, %q)", epoch, cand, c.epoch, c.cand)
		}
	}
	body := appendLeaseReq(nil, 5, "abc")
	if _, _, err := decodeLeaseReq(body[:len(body)-1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := decodeLeaseReq(body[:3]); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestHandoffReqCodec(t *testing.T) {
	target, err := decodeHandoffReq(appendHandoffReq(nil, "10.1.2.3:4727"))
	if err != nil {
		t.Fatal(err)
	}
	if target != "10.1.2.3:4727" {
		t.Fatalf("round trip %q", target)
	}
	if _, err := decodeHandoffReq(appendHandoffReq(nil, "")); err == nil {
		t.Fatal("empty target accepted")
	}
	body := appendHandoffReq(nil, "x:1")
	if _, err := decodeHandoffReq(body[:len(body)-1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := decodeHandoffReq(body[:1]); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestWireStatsCodec(t *testing.T) {
	for _, want := range [][]WireStat{
		nil,
		{{Type: MsgPing, Count: 3, SumNS: 12345}},
		{{Type: MsgFeed, Count: 1 << 40, SumNS: 1 << 50}, {Type: MsgLeaseGrant, Count: 1, SumNS: 9}},
	} {
		got, err := decodeWireStats(appendWireStats(nil, want))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round trip %d stats, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stat %d: %+v != %+v", i, got[i], want[i])
			}
		}
	}
	body := appendWireStats(nil, []WireStat{{Type: MsgPing, Count: 1, SumNS: 2}})
	if _, err := decodeWireStats(body[:len(body)-1]); err == nil {
		t.Fatal("truncated stats accepted")
	}
	if _, err := decodeWireStats(append(body, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// leaseTestBackend bolts a scriptable lease/handoff surface onto the plain
// miner backend so the frame plumbing can be tested without a real Holder.
type leaseTestBackend struct {
	*minerBackend
	mu      sync.Mutex
	info    LeaseInfo
	voteErr error
	votes   []string
	grants  []LeaseInfo
	targets []string
}

func (b *leaseTestBackend) LeaseStatus() LeaseInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.info
}

func (b *leaseTestBackend) LeaseVote(epoch uint64, candidate string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.voteErr != nil {
		return b.voteErr
	}
	b.votes = append(b.votes, fmt.Sprintf("%d/%s", epoch, candidate))
	return nil
}

func (b *leaseTestBackend) LeaseGrant(conn uint64, info LeaseInfo) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if conn == 0 {
		return errors.New("grant delivered without a connection id")
	}
	b.grants = append(b.grants, info)
	return nil
}

func (b *leaseTestBackend) Handoff(target string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.targets = append(b.targets, target)
	return nil
}

// TestLeaseFramesEndToEnd walks every lease frame through a real client and
// server: status queries return the backend's term verbatim (flags included),
// votes and grants deliver their arguments, handoff delivers its target, and
// a stale-epoch refusal travels typed.
func TestLeaseFramesEndToEnd(t *testing.T) {
	b := &leaseTestBackend{
		minerBackend: newMinerBackend(1),
		info:         LeaseInfo{Epoch: 42, Leader: "10.0.0.1:4727", TTLMS: 1500, Self: true},
	}
	addr, _, stop := startServer(t, b)
	defer stop()
	c := dialT(t, addr)
	defer c.Close()
	ctx := context.Background()

	info, err := c.LeaseStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info != b.info {
		t.Fatalf("status %+v, want %+v", info, b.info)
	}

	if err := c.LeaseVote(ctx, 43, "10.0.0.2:4727"); err != nil {
		t.Fatal(err)
	}
	grant := LeaseInfo{Epoch: 43, Leader: "10.0.0.2:4727", TTLMS: 1500, Transfer: true}
	if err := c.LeaseGrant(ctx, grant); err != nil {
		t.Fatal(err)
	}
	if err := c.Handoff(ctx, "10.0.0.3:4727"); err != nil {
		t.Fatal(err)
	}

	b.mu.Lock()
	votes, grants, targets := b.votes, b.grants, b.targets
	b.mu.Unlock()
	if len(votes) != 1 || votes[0] != "43/10.0.0.2:4727" {
		t.Fatalf("votes %v", votes)
	}
	if len(grants) != 1 || grants[0] != grant {
		t.Fatalf("grants %v, want %+v", grants, grant)
	}
	if len(targets) != 1 || targets[0] != "10.0.0.3:4727" {
		t.Fatalf("targets %v", targets)
	}

	// A refused vote travels as CodeStaleEpoch and unwraps typed.
	b.mu.Lock()
	b.voteErr = fmt.Errorf("vote refused: %w", ErrStaleEpoch)
	b.mu.Unlock()
	err = c.LeaseVote(ctx, 41, "10.0.0.2:4727")
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("refused vote error %v is not ErrStaleEpoch", err)
	}

	// The connection survives the refusal.
	if _, err := c.Ping(ctx); err != nil {
		t.Fatalf("connection dead after refused vote: %v", err)
	}
}

// TestLeaseFramesUnsupported: lease and handoff frames against a backend
// without the surface are refused frame-by-frame, not by dropping the
// connection — a mixed-version cluster stays conversational.
func TestLeaseFramesUnsupported(t *testing.T) {
	addr, _, stop := startServer(t, newMinerBackend(1))
	defer stop()
	c := dialT(t, addr)
	defer c.Close()
	ctx := context.Background()

	if _, err := c.LeaseStatus(ctx); err == nil {
		t.Fatal("lease status served by a lease-less backend")
	}
	if err := c.LeaseVote(ctx, 2, "x:1"); err == nil {
		t.Fatal("vote served by a lease-less backend")
	}
	if err := c.Handoff(ctx, "x:1"); err == nil {
		t.Fatal("handoff served by a lease-less backend")
	}
	if _, err := c.Ping(ctx); err != nil {
		t.Fatalf("connection dead after unsupported frames: %v", err)
	}
}

// TestWireStatsEndToEnd: the server's per-message latency accounting is
// queryable over the wire and counts what actually ran.
func TestWireStatsEndToEnd(t *testing.T) {
	addr, _, stop := startServer(t, newMinerBackend(1))
	defer stop()
	c := dialT(t, addr)
	defer c.Close()
	ctx := context.Background()

	const pings = 4
	for i := 0; i < pings; i++ {
		if _, err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.WireStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var ping *WireStat
	for i := range stats {
		if stats[i].Type == MsgPing {
			ping = &stats[i]
		}
	}
	if ping == nil {
		t.Fatalf("no ping entry in %v", stats)
	}
	if ping.Count < pings {
		t.Fatalf("ping count %d, want >= %d", ping.Count, pings)
	}
	if ping.SumNS == 0 {
		t.Fatal("ping latency sum is zero")
	}
}
