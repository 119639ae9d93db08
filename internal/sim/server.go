package sim

import "time"

// Priority levels for Server requests. Lower numeric value is served first.
// The HUSt metadata server uses two queues: demand requests preempt queued
// prefetch requests (but do not interrupt a request already in service).
const (
	PriorityDemand   = 0
	PriorityPrefetch = 1
	numPriorities    = 2
)

// Request is one unit of work submitted to a Server.
type Request struct {
	Service time.Duration // time the server is busy with this request
	// ServiceFn, when non-nil, is consulted at service entry and overrides
	// Service — for requests whose cost depends on state at dispatch time,
	// e.g. a batched prefetch whose store I/O is paid by whichever batch
	// member actually reaches service first (members before it may have
	// been dropped from a bounded queue).
	ServiceFn func() time.Duration
	Done      func(wait, total time.Duration)

	arrive time.Duration
}

// Server models a single service station with per-priority FIFO queues and a
// fixed number of workers. It is the queueing model behind the MDS.
type Server struct {
	eng     *Engine
	workers int
	busy    int
	queues  [numPriorities][]*Request
	limits  [numPriorities]int // 0 = unbounded; else drop-oldest beyond

	// Stats.
	served    [numPriorities]uint64 // entered service (dispatched)
	completed [numPriorities]uint64 // finished service
	dropped   [numPriorities]uint64 // evicted from a bounded queue
	waitSum   [numPriorities]time.Duration
	busySum   time.Duration
}

// NewServer creates a server with the given worker count attached to eng.
func NewServer(eng *Engine, workers int) *Server {
	if workers < 1 {
		workers = 1
	}
	return &Server{eng: eng, workers: workers}
}

// Submit enqueues a request at the given priority. Done (if non-nil) runs at
// completion with the queueing delay and the total sojourn time. When the
// priority's queue is bounded (LimitQueue) and full, the OLDEST queued
// request of that priority is dropped — its Done never runs — so a burst
// sheds the stalest work instead of growing the backlog without bound.
func (s *Server) Submit(pri int, r *Request) {
	if pri < 0 || pri >= numPriorities {
		pri = numPriorities - 1
	}
	r.arrive = s.eng.Now()
	s.queues[pri] = append(s.queues[pri], r)
	if lim := s.limits[pri]; lim > 0 {
		for len(s.queues[pri]) > lim {
			q := s.queues[pri]
			copy(q, q[1:])
			q[len(q)-1] = nil
			s.queues[pri] = q[:len(q)-1]
			s.dropped[pri]++
		}
	}
	s.dispatch()
}

// LimitQueue bounds the given priority's queue to max pending requests
// (0 restores unbounded). Requests already in service are unaffected.
func (s *Server) LimitQueue(pri, max int) {
	if pri < 0 || pri >= numPriorities || max < 0 {
		return
	}
	s.limits[pri] = max
}

func (s *Server) dispatch() {
	for s.busy < s.workers {
		var r *Request
		var pri int
		for p := 0; p < numPriorities; p++ {
			if len(s.queues[p]) > 0 {
				r = s.queues[p][0]
				copy(s.queues[p], s.queues[p][1:])
				s.queues[p][len(s.queues[p])-1] = nil
				s.queues[p] = s.queues[p][:len(s.queues[p])-1]
				pri = p
				break
			}
		}
		if r == nil {
			return
		}
		s.busy++
		wait := s.eng.Now() - r.arrive
		s.waitSum[pri] += wait
		s.served[pri]++
		service := r.Service
		if r.ServiceFn != nil {
			service = r.ServiceFn()
		}
		s.busySum += service
		req, p := r, pri
		s.eng.After(service, func() {
			s.busy--
			s.completed[p]++
			if req.Done != nil {
				req.Done(wait, s.eng.Now()-req.arrive)
			}
			s.dispatch()
		})
	}
}

// Completed reports how many requests of the given priority finished
// service; it trails the count that entered service while requests are in
// flight.
func (s *Server) Completed(pri int) uint64 { return s.completed[pri] }

// Dropped reports how many requests of the given priority were evicted from
// a bounded queue before entering service.
func (s *Server) Dropped(pri int) uint64 { return s.dropped[pri] }

// AvgWait reports the mean queueing delay of the given priority class.
func (s *Server) AvgWait(pri int) time.Duration {
	if s.served[pri] == 0 {
		return 0
	}
	return s.waitSum[pri] / time.Duration(s.served[pri])
}

// Utilization reports busy-time / elapsed-time (can exceed 1 with multiple
// workers).
func (s *Server) Utilization() float64 {
	if s.eng.Now() == 0 {
		return 0
	}
	return float64(s.busySum) / float64(s.eng.Now())
}
