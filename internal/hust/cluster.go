package hust

import (
	"fmt"
	"time"

	"farmer/internal/obs"
	"farmer/internal/sim"
	"farmer/internal/trace"
)

// OSDConfig parameterises an object storage device.
type OSDConfig struct {
	Workers   int
	SeekTime  time.Duration // per-request positioning cost
	Bandwidth float64       // bytes per second of sequential transfer
}

// DefaultOSDConfig returns a commodity-disk OSD model.
func DefaultOSDConfig() OSDConfig {
	return OSDConfig{Workers: 1, SeekTime: 5 * time.Millisecond, Bandwidth: 80e6}
}

// OSD simulates one object storage device serving the data path.
type OSD struct {
	cfg OSDConfig
	srv *sim.Server
	io  obs.Counter
}

// NewOSD attaches an OSD to the engine.
func NewOSD(eng *sim.Engine, cfg OSDConfig) *OSD {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Bandwidth <= 0 {
		cfg.Bandwidth = 80e6
	}
	return &OSD{cfg: cfg, srv: sim.NewServer(eng, cfg.Workers)}
}

// Read submits an object read of size bytes; done runs with the I/O time.
// Sequential reads (part of a batch) may skip the seek.
func (o *OSD) Read(size uint32, sequential bool, done func(time.Duration)) {
	service := time.Duration(float64(size) / o.cfg.Bandwidth * float64(time.Second))
	if !sequential {
		service += o.cfg.SeekTime
	}
	o.io.Inc()
	o.srv.Submit(sim.PriorityDemand, &sim.Request{
		Service: service,
		Done: func(wait, total time.Duration) {
			if done != nil {
				done(total)
			}
		},
	})
}

// IOs reports the number of reads submitted. Like the obs.Counter it
// wraps, it is safe to read while other goroutines submit — the engine
// itself is single-threaded, but OSDs are also reused by harnesses that
// poll statistics from outside the simulation loop.
func (o *OSD) IOs() uint64 { return o.io.Load() }

// ReplayConfig drives a trace replay against a cluster.
type ReplayConfig struct {
	MDS MDSConfig
	// ArrivalGap spaces demand arrivals evenly; when zero, the trace's own
	// timestamps are used (scaled by TimeScale).
	ArrivalGap time.Duration
	// TimeScale multiplies trace timestamps when ArrivalGap is zero.
	TimeScale float64
	// NetworkRTT is added to every client-observed response time.
	NetworkRTT time.Duration
	// MaxRecords caps how many records of the trace are replayed, so a
	// short prefix run shares one generated trace with full-length runs;
	// 0 replays the whole trace.
	MaxRecords int
}

// DefaultReplayConfig spaces arrivals at 1ms, which loads the default
// 4-worker / 2ms-miss MDS to a stable utilisation.
func DefaultReplayConfig() ReplayConfig {
	return ReplayConfig{
		MDS:        DefaultMDSConfig(),
		ArrivalGap: time.Millisecond,
		NetworkRTT: 200 * time.Microsecond,
	}
}

// Result is the outcome of one replay.
type Result struct {
	Trace  string
	Policy string
	Stats  Stats
	// ClientAvg is the mean client-observed latency (MDS response + RTT).
	ClientAvg time.Duration
	SimTime   time.Duration
}

// Replay runs the whole trace through an MDS built with cfg.MDS and the
// given predictor, on a fresh engine, and returns the result.
func Replay(t *trace.Trace, cfg ReplayConfig, mdsFactory func(*sim.Engine) (*MDS, error)) (Result, error) {
	eng := sim.New()
	mds, err := mdsFactory(eng)
	if err != nil {
		return Result{}, err
	}
	if err := mds.PopulateStore(t); err != nil {
		return Result{}, err
	}
	n := len(t.Records)
	if cfg.MaxRecords > 0 && cfg.MaxRecords < n {
		n = cfg.MaxRecords
	}
	if n == 0 {
		return Result{}, fmt.Errorf("hust: empty trace %q", t.Name)
	}
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 1
	}
	var clientSum time.Duration
	var clientN uint64
	for i := 0; i < n; i++ {
		r := &t.Records[i]
		var at time.Duration
		if cfg.ArrivalGap > 0 {
			at = time.Duration(i) * cfg.ArrivalGap
		} else {
			at = time.Duration(float64(r.Time) * scale)
		}
		rec := r
		eng.At(at, func() {
			mds.Demand(rec, func(resp time.Duration) {
				clientSum += resp + cfg.NetworkRTT
				clientN++
			})
		})
	}
	eng.Run()
	res := Result{
		Trace:   t.Name,
		Policy:  mds.Predictor().Name(),
		Stats:   mds.Finish(),
		SimTime: eng.Now(),
	}
	if clientN > 0 {
		res.ClientAvg = clientSum / time.Duration(clientN)
	}
	return res, nil
}
