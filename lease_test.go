package farmer

// Three lease runtimes as one cluster, in one goroutine: in-memory peers,
// one stepped clock, links a schedule cuts and heals — no listener, no
// sleep, no goroutine. Node n0 starts leading epoch 1 and streams to n1 and
// n2 (its configured followers, both attached, both -follow); every node
// names the other two as its voters (-lease-peers). TestLeaseRuntimeCluster
// walks five scenarios through it; FuzzLeaseSchedule runs the same steps in
// any order the input bytes pick and checks the lease invariants after
// every one.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"farmer/internal/lease"
	"farmer/internal/rpc"
)

const netTTL = time.Second

// A schedule is a byte string, one step per byte: the top three bits pick
// the action, the low five its argument. Kinds 6 and 7 repeat advance and
// tick, the steps a real schedule is mostly made of.
const (
	opAdvance = iota // the clock moves by (1 + arg%8)·TTL/8
	opTick           // node arg%3 runs its lease tick
	opCut            // link pair arg%3 is cut: (n0,n1), (n0,n2), (n1,n2)
	opHeal           // ... or healed
	opPromote        // node arg%3 is asked to promote itself
	opHandoff        // node arg%3 hands off to the node 1 + (arg/3)%2 after it
)

var linkPairs = [3][2]int{{0, 1}, {0, 2}, {1, 2}}

func advance(eighths int) byte { return byte(opAdvance<<5 | (eighths-1)%8) }
func tick(i int) byte          { return byte(opTick<<5 | i) }
func promote(i int) byte       { return byte(opPromote<<5 | i) }
func handoff(i, j int) byte    { return byte(opHandoff<<5 + i + 3*((j-i+2)%3)) }
func cut(i, j int) byte        { return byte(opCut<<5 | pairIndex(i, j)) }
func heal(i, j int) byte       { return byte(opHeal<<5 | pairIndex(i, j)) }

func pairIndex(i, j int) int {
	for p, ij := range linkPairs {
		if ij == [2]int{min(i, j), max(i, j)} {
			return p
		}
	}
	panic("no such link")
}

// round is a quarter TTL — one tick period — with every node ticking.
func round() []byte { return []byte{advance(2), tick(0), tick(1), tick(2)} }

func rounds(n int) []byte {
	var ops []byte
	for range n {
		ops = append(ops, round()...)
	}
	return ops
}

func nodeName(i int) string { return fmt.Sprintf("n%d", i) }

// linkConn is the connection id node j sees i's replication stream on.
func linkConn(i, j int) uint64 { return uint64(1 + 3*i + j) }

type leaseNet struct {
	now    time.Time
	nodes  [3]*leaseRuntime
	cut    [3][3]bool
	stream [3][3]bool // stream[i][j]: j is attached to i's replication stream

	// What the invariants remember across steps.
	ledBy   map[uint64]int // epoch -> the node seen leading it
	epoch   [3]uint64      // each node's last observed epoch
	led     [3]uint64      // the last epoch each node was seen leading
	lost    [3]uint64      // the epoch each node was deposed from (0: never)
	highest uint64         // the highest epoch any node was seen leading
}

func newLeaseNet() *leaseNet {
	n := &leaseNet{now: time.Unix(1_000_000, 0), ledBy: map[uint64]int{}}
	for i := range n.nodes {
		r := newLeaseRuntime(nodeName(i), netTTL, i != 0, func() time.Time { return n.now })
		r.peers, r.logf = netPeers{n, i}, func(string, ...any) {}
		for j := range n.nodes {
			if j != i {
				r.voters = append(r.voters, nodeName(j))
			}
		}
		n.nodes[i] = r
	}
	n.nodes[0].followers = 2
	for j := 1; j < 3; j++ {
		if err := n.attach(0, j); err != nil {
			panic(err)
		}
	}
	n.nodes[0].renew(context.Background()) // the attach-time announcement (serveBackend.replicate)
	_ = n.check()                          // n0 is seen leading epoch 1
	return n
}

// attach puts j on i's replication stream, as rpc.Replicator.Attach does:
// j's catch-up pins the link.
func (n *leaseNet) attach(i, j int) error {
	if n.cut[i][j] {
		return errors.New("link cut")
	}
	if err := n.nodes[j].pinSource(linkConn(i, j)); err != nil {
		return err
	}
	n.stream[i][j] = true
	return nil
}

// detach drops j from i's stream; j sees its primary's connection close.
func (n *leaseNet) detach(i, j int) {
	if n.stream[i][j] {
		n.stream[i][j] = false
		n.nodes[j].ConnClosed(linkConn(i, j))
	}
}

// netPeers is node i's leasePeers.
type netPeers struct {
	n *leaseNet
	i int
}

func (p netPeers) vote(_ context.Context, peer string, epoch uint64, candidate string) error {
	var j int
	fmt.Sscanf(peer, "n%d", &j)
	if p.n.cut[p.i][j] {
		return errors.New("link cut")
	}
	return p.n.nodes[j].LeaseVote(epoch, candidate)
}

// renew is rpc.Replicator.RenewLease: a grant to every attached follower,
// a stale refusal reported, any other failure detaching the follower.
func (p netPeers) renew(_ context.Context, info rpc.LeaseInfo) (acked int, stale bool) {
	for j, on := range p.n.stream[p.i] {
		if !on {
			continue
		}
		switch err := p.n.nodes[j].LeaseGrant(linkConn(p.i, j), info); {
		case err == nil:
			acked++
		case errors.Is(err, lease.ErrStaleEpoch):
			stale = true
		default:
			p.n.detach(p.i, j)
		}
	}
	return acked, stale
}

// step runs one action; the error is the action's own refusal, which a
// schedule may well provoke.
func (n *leaseNet) step(op byte) error {
	arg := int(op & 31)
	i := arg % 3
	switch op >> 5 {
	case opAdvance, 6:
		n.now = n.now.Add(time.Duration(1+arg%8) * netTTL / 8)
	case opTick, 7:
		n.nodes[i].tick(context.Background())
	case opCut:
		a, b := linkPairs[i][0], linkPairs[i][1]
		n.cut[a][b], n.cut[b][a] = true, true
		n.detach(a, b)
		n.detach(b, a)
	case opHeal:
		a, b := linkPairs[i][0], linkPairs[i][1]
		n.cut[a][b], n.cut[b][a] = false, false
	case opPromote:
		return n.nodes[i].Promote()
	case opHandoff:
		return n.handoff(i, (i+1+(arg/3)%2)%3)
	}
	return nil
}

// handoff is serveBackend.Handoff's wire steps around the runtime: attach
// the target and announce the term (replicate), then start the transfer
// grant, commit, and deliver it (rpc.Replicator.TransferLease).
func (n *leaseNet) handoff(i, j int) error {
	src := n.nodes[i]
	if err := src.writable(); err != nil {
		return err
	}
	for k, on := range n.stream[i] {
		if on && k != j {
			return fmt.Errorf("replicating to n%d too", k)
		}
	}
	if !n.stream[i][j] {
		if err := n.attach(i, j); err != nil {
			return err
		}
	}
	src.renew(context.Background())
	info, commit := src.transfer(nodeName(j))
	info.Transfer = true
	commit()
	return n.nodes[j].LeaseGrant(linkConn(i, j), info)
}

// check asserts the lease invariants on the cluster as it stands:
//   - each epoch is led by at most one node over the whole run;
//   - no node's observed epoch decreases;
//   - a node that led and lost — was deposed, by a higher epoch or a
//     handoff — never leads again at an epoch at or below the one it lost,
//     and no node leads below the highest epoch any node has led;
//   - at most one node is Leading (every node runs with a TTL).
func (n *leaseNet) check() error {
	leading := 0
	for i, r := range n.nodes {
		term, _ := r.holder.Current()
		if term.Epoch < n.epoch[i] {
			return fmt.Errorf("n%d's epoch went back from %d to %d", i, n.epoch[i], term.Epoch)
		}
		n.epoch[i] = term.Epoch
		if r.holder.Deposed() && n.lost[i] < n.led[i] {
			n.lost[i] = n.led[i]
		}
		if !r.holder.Leading() {
			continue
		}
		leading++
		e := term.Epoch
		if by, ok := n.ledBy[e]; ok && by != i {
			return fmt.Errorf("epoch %d led by n%d and n%d", e, by, i)
		}
		if e <= n.lost[i] {
			return fmt.Errorf("n%d leads epoch %d after it lost epoch %d", i, e, n.lost[i])
		}
		if e < n.highest {
			return fmt.Errorf("n%d leads epoch %d after epoch %d was led", i, e, n.highest)
		}
		n.ledBy[e], n.led[i], n.highest = i, e, e
	}
	if leading > 1 {
		return fmt.Errorf("%d nodes lead at once", leading)
	}
	return nil
}

// run steps through ops, checking the invariants after every step.
func (n *leaseNet) run(t testing.TB, ops []byte) {
	t.Helper()
	for k, op := range ops {
		_ = n.step(op)
		if err := n.check(); err != nil {
			t.Fatalf("after step %d (%#02x): %v", k, op, err)
		}
	}
}

// leader reports the one node leading, and at which epoch (-1: none).
func (n *leaseNet) leader() (int, uint64) {
	for i, r := range n.nodes {
		if r.holder.Leading() {
			term, _ := r.holder.Current()
			return i, term.Epoch
		}
	}
	return -1, 0
}

type leaseScenario struct {
	name  string
	steps []leaseStep
}

// leaseStep is a stretch of schedule and what must hold after it.
type leaseStep struct {
	ops   []byte
	check func(t *testing.T, n *leaseNet)
}

func wantLeader(i int, epoch uint64) func(*testing.T, *leaseNet) {
	return func(t *testing.T, n *leaseNet) {
		t.Helper()
		if got, e := n.leader(); got != i || e != epoch {
			t.Fatalf("leader n%d at epoch %d, want n%d at epoch %d", got, e, i, epoch)
		}
	}
}

func wantStale(i int) func(*testing.T, *leaseNet) {
	return func(t *testing.T, n *leaseNet) {
		t.Helper()
		if err := n.nodes[i].writable(); !errors.Is(err, rpc.ErrStaleEpoch) {
			t.Fatalf("n%d's write refusal: %v, want ErrStaleEpoch", i, err)
		}
		if err := n.nodes[i].Promote(); !errors.Is(err, rpc.ErrStaleEpoch) {
			t.Fatalf("n%d's promotion: %v, want refused ErrStaleEpoch", i, err)
		}
	}
}

func all(checks ...func(*testing.T, *leaseNet)) func(*testing.T, *leaseNet) {
	return func(t *testing.T, n *leaseNet) {
		t.Helper()
		for _, c := range checks {
			c(t, n)
		}
	}
}

var leaseScenarios = []leaseScenario{
	{"election by peer majority after the leader lapses", []leaseStep{
		{[]byte{cut(0, 1), cut(0, 2)}, wantLeader(0, 1)},
		// n1's view lapses one TTL after n0's last grant: n2 votes it
		// epoch 2, and its renewals by vote keep n2 from electing too.
		{rounds(4), all(wantLeader(1, 2), wantStale(0))},
		{rounds(12), wantLeader(1, 2)},
	}},
	{"renewal held by a quorum of configured followers", []leaseStep{
		{append([]byte{cut(0, 2)}, rounds(12)...), wantLeader(0, 1)},
		// n0 stalls past its TTL. n2, detached and lapsed, asks for
		// votes; n1 can still hear n0 on its replication link and
		// withholds its vote, so nobody takes epoch 2 — and n0, back,
		// renews through n1 and leads on.
		{append(append([]byte{advance(8), advance(4)}, tick(2), tick(1), tick(2)), round()...),
			func(t *testing.T, n *leaseNet) {
				if term, _ := n.nodes[2].holder.Current(); term.Epoch != 1 {
					t.Fatalf("n2 took epoch %d while n1 still heard n0", term.Epoch)
				}
				wantLeader(0, 1)(t, n)
			}},
	}},
	{"lapse when that quorum is lost", []leaseStep{
		{[]byte{cut(0, 1), cut(0, 2), cut(1, 2)}, wantLeader(0, 1)},
		// Within one TTL n0 stops claiming the lease and refuses writes
		// typed; n1 and n2 cannot reach a vote, so nobody leads.
		{rounds(4), all(wantLeader(-1, 0), wantStale(0))},
		{rounds(8), wantLeader(-1, 0)},
		// The followers reach each other again: one of them is elected.
		{append([]byte{heal(1, 2)}, rounds(4)...), func(t *testing.T, n *leaseNet) {
			if i, e := n.leader(); i < 1 || e != 2 {
				t.Fatalf("leader n%d at epoch %d, want a follower at epoch 2", i, e)
			}
		}},
	}},
	{"live-handoff transfer", []leaseStep{
		// The stream cannot split leaders: n0 hands off only once n2 is
		// off it.
		{[]byte{handoff(0, 1)}, wantLeader(0, 1)},
		{[]byte{cut(0, 2), handoff(0, 1)}, all(wantLeader(1, 2), wantStale(0))},
		{rounds(12), all(wantLeader(1, 2), wantStale(0))},
	}},
	{"split-brain: the partitioned old leader is deposed by the higher epoch", []leaseStep{
		{append([]byte{cut(0, 1), cut(0, 2)}, rounds(4)...), all(wantLeader(1, 2), wantStale(0))},
		// The partition heals. n0 hears epoch 2 (n1 renews through its
		// voters) and is deposed for good: it never leads again, and n2
		// never elects against n1.
		{append([]byte{heal(0, 1), heal(0, 2)}, rounds(12)...), func(t *testing.T, n *leaseNet) {
			wantLeader(1, 2)(t, n)
			wantStale(0)(t, n)
			if !n.nodes[0].holder.Deposed() {
				t.Fatal("n0 heard epoch 2 but is not deposed")
			}
		}},
	}},
}

func (s leaseScenario) ops() []byte {
	var ops []byte
	for _, st := range s.steps {
		ops = append(ops, st.ops...)
	}
	return ops
}

func TestLeaseRuntimeCluster(t *testing.T) {
	for _, s := range leaseScenarios {
		t.Run(s.name, func(t *testing.T) {
			n := newLeaseNet()
			for _, st := range s.steps {
				n.run(t, st.ops)
				st.check(t, n)
			}
		})
	}
}

// promotedPastALateLeader is the schedule FuzzLeaseSchedule found when a
// promotion took the next epoch without votes: n1, cut off from a leader
// that is merely late, was promoted while n2, still attached, renewed n0
// again — two leaders at once.
var promotedPastALateLeader = []byte{cut(0, 1), advance(8), promote(1), tick(0), tick(1), tick(2)}

// TestLeasePromotionNeedsVoters runs that schedule's promotion on n1 and on
// a tenant of n1: with a TTL a tenant's runtime shares its daemon's holder,
// so promoting a named tenant is the daemon's election too.
func TestLeasePromotionNeedsVoters(t *testing.T) {
	for _, tenant := range []bool{false, true} {
		t.Run(fmt.Sprintf("tenant=%v", tenant), func(t *testing.T) {
			n := newLeaseNet()
			n.run(t, promotedPastALateLeader[:2])
			r := n.nodes[1]
			if tenant {
				r = r.forTenant(true)
				r.peers, r.logf = netPeers{n, 1}, func(string, ...any) {}
			}
			if err := r.Promote(); !errors.Is(err, rpc.ErrNotPrimary) {
				t.Fatalf("promoting n1 while n2 still hears n0: %v, want refused ErrNotPrimary", err)
			}
			n.run(t, promotedPastALateLeader[3:])
			wantLeader(0, 1)(t, n)
		})
	}
}

// unreachable is the leasePeers of a primary whose follower is gone: no
// renewal is acked, no vote granted.
type unreachable struct{}

func (unreachable) vote(context.Context, string, uint64, string) error {
	return errors.New("unreachable")
}
func (unreachable) renew(context.Context, rpc.LeaseInfo) (int, bool) { return 0, false }

// TestLeaseRestartedFollowerCannotPromote: a TTL follower restarted under a
// running primary, which never re-dials it, has observed no term. With no
// voters a promotion would acquire epoch 1, the epoch the primary holds —
// and, once it lapses, the epoch of every record it acked alone. Promote
// refuses it as an election does, before and after that lapse.
func TestLeaseRestartedFollowerCannotPromote(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	primary := newLeaseRuntime("p", netTTL, false, clock)
	primary.peers, primary.logf, primary.followers = unreachable{}, func(string, ...any) {}, 1
	restarted := newLeaseRuntime("f", netTTL, true, clock)
	restarted.peers, restarted.logf = unreachable{}, func(string, ...any) {}

	for _, when := range []string{"primary leading", "primary lapsed"} {
		if err := restarted.Promote(); !errors.Is(err, rpc.ErrNotPrimary) {
			t.Fatalf("%s: promoting a follower that observed no term: %v, want refused ErrNotPrimary", when, err)
		}
		restarted.tick(context.Background())
		if term, _ := restarted.holder.Current(); term.Epoch != 0 || restarted.holder.Led() {
			t.Fatalf("%s: the restarted follower took epoch %d beside the primary's epoch 1", when, term.Epoch)
		}
		now = now.Add(2 * netTTL)
		primary.tick(context.Background())
	}
	if primary.holder.Leading() {
		t.Fatal("a primary with no follower acking kept its lease past the TTL")
	}
}

func FuzzLeaseSchedule(f *testing.F) {
	for _, s := range leaseScenarios {
		f.Add(s.ops())
	}
	f.Add(promotedPastALateLeader)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		newLeaseNet().run(t, ops)
	})
}
