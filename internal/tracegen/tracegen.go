// Package tracegen synthesises file-system workloads with the structure the
// FARMER paper's traces exhibit, since the original LLNL / INS / RES / HP
// traces are not publicly distributable (see DESIGN.md §2 for the
// substitution argument).
//
// The generative model: a workload is a population of *correlation groups* —
// ordered sets of files that one user's program accesses together (source
// files and their objects, an application's config+data+log, a parallel
// job's per-rank checkpoint files). Several concurrent *streams* (user,
// host, program) run sessions over Zipf-popular groups; the OS scheduler
// interleaves the streams, which is exactly the effect the paper blames for
// the inaccuracy of sequence-only predictors (§6). A tunable fraction of
// accesses is attribute-random background noise.
//
// Every record carries the ground-truth group id (or -1 for noise), which
// miners never see but experiments use to score accuracy.
package tracegen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"farmer/internal/trace"
)

// Profile parameterises a synthetic workload.
type Profile struct {
	Name    string
	Records int
	Seed    uint64

	Users           int
	Hosts           int
	ProgramsPerUser int

	Groups       int // number of correlation groups
	GroupSizeMin int // files per group, inclusive bounds
	GroupSizeMax int
	GroupRevisit float64 // probability a finished stream re-runs a recent group

	NoiseFiles int     // pool of uncorrelated files
	NoiseRatio float64 // fraction of accesses drawn from the noise pool

	Streams     int     // concurrently interleaved access streams
	BurstMin    int     // scheduler quantum: consecutive accesses per stream
	BurstMax    int     //   before switching (both default to 1 when zero)
	SessionSkip float64 // probability a session skips a file (imperfect runs)
	// PartialSession is the probability a session covers only a contiguous
	// run of its group instead of the whole group. Partial runs are what
	// make pure-semantic prefetching (p=1) waste cache on members the
	// session never reaches, so the access-frequency term earns its keep.
	PartialSession float64
	// AliasFraction is the probability that a group is a semantic alias of
	// an earlier group: same user, same program, same directory — think of
	// one developer's gcc run over two different projects in the same tree
	// (the paper's §2 example). Aliased groups are indistinguishable to a
	// pure-semantic miner (p=1) but trivially separable by access frequency,
	// which is what makes the combined degree (p≈0.7) win.
	AliasFraction float64
	// TeamSize makes each group a shared project touched by several users:
	// every session picks one team member as the requesting user (with that
	// member's own program instance). A file's semantic vector then carries
	// whichever user last touched it, so pure-semantic similarity between
	// true group members degrades while access frequency is unaffected —
	// the second mechanism behind the paper's p = 0.7 optimum. 0 or 1
	// disables sharing.
	TeamSize     int
	ZipfS        float64 // group popularity skew (s > 1: heavier head)
	HasPaths     bool    // HP/LLNL style (paths) vs INS/RES style (fid+dev)
	Devices      int     // device-id space for path-less traces
	MeanGapMicro int     // mean inter-arrival time in microseconds
}

// Validate reports profile errors.
func (p Profile) Validate() error {
	switch {
	case p.Records <= 0:
		return fmt.Errorf("tracegen: Records = %d", p.Records)
	case p.Users <= 0 || p.Hosts <= 0 || p.ProgramsPerUser <= 0:
		return fmt.Errorf("tracegen: population empty (users=%d hosts=%d progs=%d)", p.Users, p.Hosts, p.ProgramsPerUser)
	case p.Groups <= 0 || p.GroupSizeMin < 2 || p.GroupSizeMax < p.GroupSizeMin:
		return fmt.Errorf("tracegen: bad group shape (groups=%d size=[%d,%d])", p.Groups, p.GroupSizeMin, p.GroupSizeMax)
	case p.NoiseRatio < 0 || p.NoiseRatio >= 1:
		return fmt.Errorf("tracegen: NoiseRatio = %v outside [0,1)", p.NoiseRatio)
	case p.NoiseRatio > 0 && p.NoiseFiles <= 0:
		return fmt.Errorf("tracegen: NoiseRatio %v with no noise files", p.NoiseRatio)
	case p.Streams <= 0:
		return fmt.Errorf("tracegen: Streams = %d", p.Streams)
	}
	return nil
}

// group is one correlation group: files accessed in order by one owner.
type group struct {
	id    int32
	files []trace.FileID
	uid   uint32
	pid   uint32 // program id that runs this group
	host  uint32
	dev   uint32
	dir   string   // directory holding the group's files (path traces)
	team  []uint32 // additional users sharing the group (TeamSize > 1)
}

// sessionIdentity picks the requesting user and program instance for one
// session over the group.
func (g *group) sessionIdentity(rng *rand.Rand, programsPerUser int) (uid, pid uint32) {
	uid = g.uid
	if len(g.team) > 0 {
		uid = g.team[rng.IntN(len(g.team))]
	}
	if uid == g.uid {
		return uid, g.pid
	}
	// A teammate runs their own instance of the same program slot.
	return uid, uid*uint32(programsPerUser) + g.pid%uint32(programsPerUser)
}

// stream is one interleaved access source.
type stream struct {
	host    uint32
	g       *group // current session's group (nil when idle)
	pos     int
	end     int      // session covers g.files[pos:end]
	uid     uint32   // requesting user for this session
	pid     uint32   // requesting program instance for this session
	history []*group // recently run groups, for revisits
}

// Generate builds the trace. The result is deterministic in the profile.
func (p Profile) Generate() (*trace.Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(p.Seed, 0x9E3779B97F4A7C15))

	t := &trace.Trace{Name: p.Name, HasPaths: p.HasPaths}

	// Build groups and their files.
	groups := make([]*group, p.Groups)
	var nextFile trace.FileID
	var paths []string
	for i := range groups {
		size := p.GroupSizeMin
		if p.GroupSizeMax > p.GroupSizeMin {
			size += rng.IntN(p.GroupSizeMax - p.GroupSizeMin + 1)
		}
		var g *group
		if i > 0 && p.AliasFraction > 0 && rng.Float64() < p.AliasFraction {
			// Semantic alias: same owner, program, host, device and
			// directory as an earlier group, but a disjoint file set.
			base := groups[rng.IntN(i)]
			g = &group{id: int32(i), uid: base.uid, pid: base.pid, host: base.host, dev: base.dev, dir: base.dir}
		} else {
			uid := uint32(rng.IntN(p.Users))
			g = &group{
				id:   int32(i),
				uid:  uid,
				pid:  uid*uint32(p.ProgramsPerUser) + uint32(rng.IntN(p.ProgramsPerUser)),
				host: uint32(rng.IntN(p.Hosts)),
				dev:  uint32(rng.IntN(max(p.Devices, 1))),
			}
			g.dir = fmt.Sprintf("/home/user%d/proj%d", g.uid, i)
		}
		for j := 0; j < size; j++ {
			g.files = append(g.files, nextFile)
			if p.HasPaths {
				paths = append(paths, fmt.Sprintf("%s/f%d", g.dir, int(nextFile)))
			}
			nextFile++
		}
		// Sessions traverse the group in a fixed but id-uncorrelated order,
		// so access order carries information that file ids do not.
		rng.Shuffle(len(g.files), func(a, b int) { g.files[a], g.files[b] = g.files[b], g.files[a] })
		if p.TeamSize > 1 {
			g.team = append(g.team, g.uid)
			for len(g.team) < p.TeamSize {
				g.team = append(g.team, uint32(rng.IntN(p.Users)))
			}
		}
		groups[i] = g
	}
	// Noise pool.
	noiseBase := nextFile
	for j := 0; j < p.NoiseFiles; j++ {
		if p.HasPaths {
			paths = append(paths, fmt.Sprintf("/var/misc/d%d/n%d", j%17, j))
		}
		nextFile++
	}
	t.FileCount = int(nextFile)
	t.Paths = paths

	// Zipf CDF over groups.
	cdf := zipfCDF(p.Groups, p.ZipfS, rng)

	// Streams.
	streams := make([]*stream, p.Streams)
	for i := range streams {
		streams[i] = &stream{host: uint32(rng.IntN(p.Hosts))}
	}

	pickGroup := func(s *stream) *group {
		if len(s.history) > 0 && rng.Float64() < p.GroupRevisit {
			return s.history[rng.IntN(len(s.history))]
		}
		g := groups[sampleCDF(cdf, rng)]
		s.history = append(s.history, g)
		if len(s.history) > 8 {
			s.history = s.history[1:]
		}
		return g
	}

	meanGap := p.MeanGapMicro
	if meanGap <= 0 {
		meanGap = 50
	}
	burstMin, burstMax := p.BurstMin, p.BurstMax
	if burstMin <= 0 {
		burstMin = 1
	}
	if burstMax < burstMin {
		burstMax = burstMin
	}
	var cur *stream
	burstLeft := 0
	var now time.Duration
	t.Records = make([]trace.Record, 0, p.Records)
	ops := [...]trace.Op{trace.OpOpen, trace.OpRead, trace.OpStat, trace.OpWrite}

	for len(t.Records) < p.Records {
		now += time.Duration(rng.ExpFloat64()*float64(meanGap)) * time.Microsecond
		rec := trace.Record{
			Seq:  uint64(len(t.Records)),
			Time: now,
			Op:   ops[rng.IntN(len(ops))],
			Size: uint32(1024 + rng.IntN(128*1024)),
		}
		if p.NoiseRatio > 0 && rng.Float64() < p.NoiseRatio {
			// Background noise: random file, random attribution.
			f := noiseBase + trace.FileID(rng.IntN(p.NoiseFiles))
			rec.File = f
			rec.UID = uint32(rng.IntN(p.Users))
			rec.PID = uint32(p.Users*p.ProgramsPerUser + rng.IntN(64)) // transient pids
			rec.Host = uint32(rng.IntN(p.Hosts))
			rec.Dev = uint32(rng.IntN(max(p.Devices, 1)))
			rec.Group = -1
			if p.HasPaths {
				rec.Path = paths[f]
			}
			t.Records = append(t.Records, rec)
			continue
		}
		// Pick a stream. The scheduler gives each stream a burst of
		// consecutive accesses (its quantum) before switching; burst length
		// 1 degenerates to uniform interleaving.
		if cur == nil || burstLeft <= 0 {
			cur = streams[rng.IntN(len(streams))]
			burstLeft = burstMin
			if burstMax > burstMin {
				burstLeft += rng.IntN(burstMax - burstMin + 1)
			}
		}
		s := cur
		burstLeft--
		if s.g == nil {
			s.g = pickGroup(s)
			s.pos = 0
			s.end = len(s.g.files)
			s.uid, s.pid = s.g.sessionIdentity(rng, p.ProgramsPerUser)
			if p.PartialSession > 0 && rng.Float64() < p.PartialSession && len(s.g.files) > 2 {
				// Cover a contiguous run of at least 2 files.
				runLen := 2 + rng.IntN(len(s.g.files)-1)
				if runLen > len(s.g.files) {
					runLen = len(s.g.files)
				}
				s.pos = rng.IntN(len(s.g.files) - runLen + 1)
				s.end = s.pos + runLen
			}
		}
		// Possibly skip a file within the session.
		if p.SessionSkip > 0 && rng.Float64() < p.SessionSkip && s.pos < s.end-1 {
			s.pos++
		}
		g := s.g
		f := g.files[s.pos]
		rec.File = f
		rec.UID = s.uid
		rec.PID = s.pid
		rec.Host = s.host
		rec.Dev = g.dev
		rec.Group = g.id
		if p.HasPaths {
			rec.Path = paths[f]
		}
		t.Records = append(t.Records, rec)
		s.pos++
		if s.pos >= s.end {
			s.g = nil // session complete
		}
	}
	return t, nil
}

// MustGenerate is Generate for tests and examples with known-good profiles.
func (p Profile) MustGenerate() *trace.Trace {
	t, err := p.Generate()
	if err != nil {
		panic(err)
	}
	return t
}

// GroundTruth maps each file to its correlation group's member set, derived
// from the generated trace's Group annotations. Files with group -1 map to
// nil. Experiments use it to score predictions without peeking during
// mining.
func GroundTruth(t *trace.Trace) map[trace.FileID][]trace.FileID {
	groups := map[int32][]trace.FileID{}
	seen := map[trace.FileID]int32{}
	for i := range t.Records {
		r := &t.Records[i]
		if r.Group < 0 {
			continue
		}
		if _, ok := seen[r.File]; !ok {
			seen[r.File] = r.Group
			groups[r.Group] = append(groups[r.Group], r.File)
		}
	}
	out := make(map[trace.FileID][]trace.FileID, len(seen))
	for f, g := range seen {
		out[f] = groups[g]
	}
	return out
}

func zipfCDF(n int, s float64, rng *rand.Rand) []float64 {
	if s <= 0 {
		s = 1.0
	}
	// Random permutation of ranks so group id does not encode popularity.
	weights := make([]float64, n)
	perm := rng.Perm(n)
	var sum float64
	for i := 0; i < n; i++ {
		w := 1.0 / math.Pow(float64(perm[i]+1), s)
		weights[i] = w
		sum += w
	}
	cdf := make([]float64, n)
	acc := 0.0
	for i, w := range weights {
		acc += w / sum
		cdf[i] = acc
	}
	cdf[n-1] = 1.0
	return cdf
}

func sampleCDF(cdf []float64, rng *rand.Rand) int {
	x := rng.Float64()
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
