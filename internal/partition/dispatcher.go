package partition

import (
	"fmt"
	"sync/atomic"

	"farmer/internal/graph"
	"farmer/internal/trace"
	"farmer/internal/vsm"
)

// Event is one unit of mining work routed to the owner of the state it
// touches. Access events install the freshly extracted semantic vector of
// Succ on owner(Succ); edge events add LDA credit to Pred->Succ and
// re-evaluate R(Pred, Succ) on owner(Pred), carrying Succ's vector because
// the owning partition does not store it.
//
// Vec points at the one vector extracted for the record, shared by its access
// and edge events and never written through; whoever dispatched the record
// says until when it stays as it is. nil stands for the empty vector.
type Event struct {
	Pred   trace.FileID
	Succ   trace.FileID
	Credit float64
	Vec    *vsm.Vector
	Seq    uint64 // global ingest sequence of the record that produced it
	Access bool
}

// Vector returns the vector ev carries: the empty one for none.
func (ev *Event) Vector() *vsm.Vector {
	if ev.Vec == nil {
		return new(vsm.Vector)
	}
	return ev.Vec
}

// Config parameterises a Dispatcher. Owners must be >= 1; a nil Partitioner
// defaults to Stripe.
type Config struct {
	Owners      int
	Partitioner Partitioner
	// Mask and PathAlg configure the Stage-1 extractor; Graph supplies the
	// lookahead window and LDA parameters (normalized like graph.New).
	Mask    vsm.Mask
	PathAlg vsm.PathAlg
	Graph   graph.Config
}

// Dispatcher replays the access stream in global order, runs Stage 1
// (semantic extraction) once per record, and emits the per-owner events
// that complete Stages 2-4. It is the single sequencing point of a
// partitioned deployment; Dispatch is not safe for concurrent use and
// callers serialize around it.
type Dispatcher struct {
	owners int
	part   Partitioner
	gcfg   graph.Config
	ex     *vsm.Extractor
	window []trace.FileID
	seq    atomic.Uint64
}

// NewDispatcher builds a dispatcher; it panics on a non-positive owner
// count (programmer error, matching core's constructor conventions).
func NewDispatcher(cfg Config) *Dispatcher {
	if cfg.Owners < 1 {
		panic(fmt.Sprintf("partition: owner count %d", cfg.Owners))
	}
	part := cfg.Partitioner
	if part == nil {
		part = Stripe
	}
	ex := vsm.NewExtractor(cfg.Mask)
	ex.Alg = cfg.PathAlg
	return &Dispatcher{
		owners: cfg.Owners,
		part:   part,
		gcfg:   cfg.Graph.Normalized(),
		ex:     ex,
	}
}

// Dispatched reports how many records have been sequenced. Safe to read
// concurrently with Dispatch.
func (d *Dispatcher) Dispatched() uint64 { return d.seq.Load() }

// Advance claims n sequence numbers without dispatching — how a checkpoint
// load restores the counter of the stream it resumes. It returns the last
// sequence number claimed.
func (d *Dispatcher) Advance(n uint64) uint64 { return d.seq.Add(n) }

// Dispatch sequences one record and emits its events: the access event to
// the owner of r.File, then one edge event per lookahead-window slot (most
// recent first, exactly as graph.Feed assigns LDA credit — a predecessor
// occupying two slots emits two events, and slots holding the accessed
// file itself are skipped), each to the owner of its predecessor. It
// returns the record's global sequence number. Callers must serialize
// Dispatch calls; emit runs synchronously on the caller's goroutine. The
// events point at a vector of their own: they may outlive the call (hust's
// in-flight queues).
func (d *Dispatcher) Dispatch(r *trace.Record, emit func(owner int, ev Event)) uint64 {
	return d.DispatchInto(r, new(vsm.Vector), emit)
}

// DispatchInto is Dispatch extracting into v, which the caller owns: every
// event points at it, so v stays as it is until the last has been applied.
func (d *Dispatcher) DispatchInto(r *trace.Record, v *vsm.Vector, emit func(owner int, ev Event)) uint64 {
	seq := d.seq.Add(1)
	d.ex.ExtractInto(r, v)
	emit(d.part(r.File, d.owners), Event{Succ: r.File, Vec: v, Seq: seq, Access: true})
	for i := len(d.window) - 1; i >= 0; i-- {
		pred := d.window[i]
		if pred == r.File {
			continue
		}
		credit := d.gcfg.Credit(len(d.window) - i) // distance 1 = immediate predecessor
		emit(d.part(pred, d.owners), Event{Pred: pred, Succ: r.File, Credit: credit, Vec: v, Seq: seq})
	}
	d.window = append(d.window, r.File)
	if len(d.window) > d.gcfg.Window {
		copy(d.window, d.window[1:])
		d.window = d.window[:d.gcfg.Window]
	}
	return seq
}

// ResetWindow forgets the lookahead window (stream boundary) while keeping
// the sequence counter.
func (d *Dispatcher) ResetWindow() { d.window = d.window[:0] }

// Window returns a copy of the lookahead window, oldest first. Callers
// serialize with Dispatch, like every window operation.
func (d *Dispatcher) Window() []trace.FileID {
	return append([]trace.FileID(nil), d.window...)
}

// PrimeWindow replaces the lookahead window (trimmed to the configured
// width, keeping the most recent entries) without dispatching or advancing
// the sequence — how a checkpoint-bootstrapped replica resumes crediting
// exactly the predecessors the checkpointing dispatcher would have.
func (d *Dispatcher) PrimeWindow(w []trace.FileID) {
	if len(w) > d.gcfg.Window {
		w = w[len(w)-d.gcfg.Window:]
	}
	d.window = append(d.window[:0], w...)
}
