// Global mining across the multi-MDS cluster: instead of each server mining
// only the request sub-stream it observes (the pessimistic per-partition
// deployment the cluster.go comment admits), a cluster-level
// partition.Dispatcher sequences every demand access once and fans the
// Stage-3/4 edge events out to the servers owning the affected state. The
// partitions of one core.ShardedModel ARE the servers' local miners —
// server i predicts from Shard(i), which holds exactly the files the
// cluster routes to i — so N partitioned servers collectively mine the same
// model a single ShardedModel would, bit for bit, while every demand
// request still touches only its home server.
//
// Cross-server event traffic is modeled, not assumed free: events whose
// owner differs from the record's home server travel through a bounded,
// drop-oldest queue and arrive after GlobalConfig.NetDelay of virtual time;
// each record's mining CPU is priced on the owning server's mining station
// (MDSConfig.MineTime), which also times the prefetch issue.
// Overload therefore degrades remote-model freshness (counted drops) and
// prefetch coverage — never demand latency, which stays on the pure
// cache/store path (MDSConfig.ExternalMiner).
package hust

import (
	"time"

	"farmer/internal/core"
	"farmer/internal/partition"
	"farmer/internal/predictors"
	"farmer/internal/trace"
)

// GlobalConfig describes the cluster-level global miner.
type GlobalConfig struct {
	// NetDelay is the one-way virtual-time latency of an inter-MDS event
	// delivery. Events bound for the record's home server apply immediately
	// (they never leave the machine).
	NetDelay time.Duration
	// MailboxCap bounds each server's queue of in-flight events; beyond it
	// the oldest undelivered event is dropped and counted (4096 when 0).
	MailboxCap int
}

// DefaultGlobalConfig models a same-rack metadata cluster: 100µs one-way
// event latency, default mailbox bound.
func DefaultGlobalConfig() GlobalConfig {
	return GlobalConfig{NetDelay: 100 * time.Microsecond}
}

// inFlight is one event on its way to the server owning the state it
// touches, with the virtual time it arrives at.
type inFlight struct {
	ev  partition.Event
	due time.Duration
}

// eventQueue holds the events in flight toward one server, oldest first. A
// producer never blocks: a full queue sheds its oldest event (counted), so a
// mining burst degrades remote model fidelity instead of stalling the
// dispatcher. The simulator is one goroutine; nothing here is locked.
type eventQueue struct {
	q       []inFlight
	dropped uint64
}

// push queues ev, first shedding the oldest event of a queue already
// holding bound.
func (b *eventQueue) push(bound int, ev partition.Event, due time.Duration) {
	if len(b.q) == bound {
		b.q = b.q[1:]
		b.dropped++
	}
	b.q = append(b.q, inFlight{ev, due})
}

// popDue removes and returns the events that have arrived by now: the
// longest prefix of due ones, never one from behind an event still in flight.
func (b *eventQueue) popDue(now time.Duration) (evs []partition.Event) {
	for len(b.q) > 0 && b.q[0].due <= now {
		evs = append(evs, b.q[0].ev)
		b.q = b.q[1:]
	}
	return evs
}

// globalMiner is the cluster-side mining state: the collective ensemble,
// one queue per server, and traffic accounting.
//
// Delivery is strictly in order per server — the invariant bit-identical
// mining rests on — AND honestly priced: every event carries a due time
// (push time for the home server's own share, +NetDelay for remote
// shares), and a server applies its stream only up to the first event
// whose due time has not arrived. A local event queued behind an in-flight
// remote one therefore waits for it (head-of-line blocking, exactly what
// in-order delivery over a network costs), rather than the remote event
// jumping its latency.
type globalMiner struct {
	cfg GlobalConfig
	ens *core.ShardedModel
	// queues[i] holds the events in flight toward server i, at most
	// cfg.MailboxCap of them.
	queues []eventQueue
	// pending[i] marks a scheduled wake-up for server i, so a burst of
	// remote events costs one virtual-time event, not one per record.
	pending       []bool
	events        uint64
	cross         uint64
	crossPrefetch uint64
}

func newGlobalMiner(cfg GlobalConfig, mc core.Config, servers int, part Partitioner) *globalMiner {
	if cfg.MailboxCap <= 0 {
		cfg.MailboxCap = 4096
	}
	return &globalMiner{
		cfg:     cfg,
		ens:     core.NewShardedPartitioned(mc, servers, part),
		queues:  make([]eventQueue, servers),
		pending: make([]bool, servers),
	}
}

// globalPredictor serves Predict from the server's partition of the
// cluster-wide ensemble. Record is a no-op: the cluster dispatcher mines
// globally, so a server never feeds its own sub-stream.
type globalPredictor struct{ m *core.Model }

func (globalPredictor) Name() string                                   { return "FARMER-global" }
func (globalPredictor) Record(*trace.Record)                           {}
func (p globalPredictor) Predict(f trace.FileID, k int) []trace.FileID { return p.m.Predict(f, k) }

var _ predictors.Predictor = globalPredictor{}

// mineGlobal sequences one record through the cluster dispatcher and routes
// its events: the home server's share is due immediately, remote shares
// after NetDelay. Per-server application order equals global dispatch order
// — each queue is FIFO and deliverGlobal releases only its due prefix —
// which is the invariant keeping the ensemble bit-identical to a single
// locally fed ShardedModel while nothing drops.
func (c *Cluster) mineGlobal(home int, r *trace.Record) {
	g := c.global
	now := c.eng.Now()
	g.ens.DispatchExternal(r, func(owner int, ev partition.Event) {
		g.events++
		due := now
		if owner != home {
			g.cross++
			due += g.cfg.NetDelay
		}
		g.queues[owner].push(g.cfg.MailboxCap, ev, due)
		c.deliverGlobal(owner)
	})
}

// deliverGlobal applies a server's due event prefix to its partition of the
// ensemble and schedules a wake-up for the first still-in-flight event.
// State applies at delivery (keeping order deterministic); the mining CPU
// is priced afterwards on the server's mining station, whose completion
// issues the prefetches for each record the server owns — the same cost
// model as the single-MDS async pipeline.
func (c *Cluster) deliverGlobal(owner int) {
	g := c.global
	srv := c.servers[owner]
	now := c.eng.Now()
	if evs := g.queues[owner].popDue(now); len(evs) > 0 {
		g.ens.Shard(owner).ApplyEvents(evs)
		for i := range evs {
			if !evs[i].Access {
				continue
			}
			f := evs[i].Succ
			srv.SubmitMine(srv.cfg.MineTime, func() { c.issueGlobalPrefetches(owner, f) })
		}
	}
	if q := g.queues[owner].q; len(q) > 0 && !g.pending[owner] {
		g.pending[owner] = true
		c.eng.After(q[0].due-now, func() {
			g.pending[owner] = false
			c.deliverGlobal(owner)
		})
	}
}

// issueGlobalPrefetches is where global mining pays off: the successors of
// f may live on ANY server, and a prefetch only helps on the server that
// will see the successor's demand. Each predicted candidate is therefore
// routed to its owning server's prefetch queue — locally at once, remotely
// after NetDelay — with each server's share forming one PrefetchBatch. A
// per-partition miner cannot do this: it never learns cross-server
// successors in the first place.
func (c *Cluster) issueGlobalPrefetches(home int, f trace.FileID) {
	g := c.global
	k := c.servers[home].cfg.PrefetchK
	if k <= 0 {
		return
	}
	cands := g.ens.Predict(f, k)
	if len(cands) == 0 {
		return
	}
	n := len(c.servers)
	byOwner := make(map[int][]trace.FileID, 2)
	for _, cand := range cands {
		byOwner[c.partition(cand, n)] = append(byOwner[c.partition(cand, n)], cand)
	}
	for owner, list := range byOwner {
		if owner == home {
			c.servers[owner].PrefetchFiles(list)
			continue
		}
		g.crossPrefetch += uint64(len(list))
		dst, files := owner, list
		c.eng.After(g.cfg.NetDelay, func() { c.servers[dst].PrefetchFiles(files) })
	}
}

// GlobalMiningStats is the global miner's accounting after a run.
type GlobalMiningStats struct {
	// Fed is how many records the cluster dispatcher sequenced.
	Fed uint64
	// Events is the total mining events routed; CrossEvents counts the ones
	// shipped to a server other than the record's home (the inter-MDS
	// traffic a partitioned deployment pays for global visibility).
	Events      uint64
	CrossEvents uint64
	// CrossRatio is CrossEvents / Events (0 when nothing was mined).
	CrossRatio float64
	// CrossPrefetches counts predictions routed to a server other than the
	// miner's — the cross-partition prefetches only global mining can issue.
	CrossPrefetches uint64
	// MailboxDropped counts events evicted from full mailboxes — each one a
	// permanent, counted divergence from the global model.
	MailboxDropped uint64
}

func (g *globalMiner) stats() *GlobalMiningStats {
	s := &GlobalMiningStats{
		Fed:             g.ens.Fed(),
		Events:          g.events,
		CrossEvents:     g.cross,
		CrossPrefetches: g.crossPrefetch,
	}
	for i := range g.queues {
		s.MailboxDropped += g.queues[i].dropped
	}
	if g.events > 0 {
		s.CrossRatio = float64(g.cross) / float64(g.events)
	}
	return s
}

// GlobalMiner exposes the cluster's collective ensemble (nil for
// per-partition clusters): fingerprinting, merged persistence, direct
// reads. Server i's partition is GlobalMiner().Shard(i).
func (c *Cluster) GlobalMiner() *core.ShardedModel {
	if c.global == nil {
		return nil
	}
	return c.global.ens
}
