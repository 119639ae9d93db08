package hust

import (
	"fmt"
	"time"

	"farmer/internal/sim"
	"farmer/internal/trace"
)

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
