package tracegen

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"farmer/internal/trace"
)

func smallProfile() Profile {
	p := HP(5000)
	return p
}

func TestGenerateValidTrace(t *testing.T) {
	for _, p := range Profiles(4000) {
		tr, err := p.Generate()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: invalid trace: %v", p.Name, err)
		}
		if tr.Len() != 4000 {
			t.Fatalf("%s: %d records, want 4000", p.Name, tr.Len())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := smallProfile()
	a := p.MustGenerate()
	b := p.MustGenerate()
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("same profile produced different traces")
	}
}

func TestSeedChangesTrace(t *testing.T) {
	p := smallProfile()
	a := p.MustGenerate()
	p.Seed++
	b := p.MustGenerate()
	if reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Profile{
		{},
		{Records: 10},
		{Records: 10, Users: 1, Hosts: 1, ProgramsPerUser: 1},
		{Records: 10, Users: 1, Hosts: 1, ProgramsPerUser: 1, Groups: 1, GroupSizeMin: 1, GroupSizeMax: 1, Streams: 1},
		func() Profile { p := HP(100); p.NoiseRatio = 1.5; return p }(),
		func() Profile { p := HP(100); p.NoiseRatio = 0.5; p.NoiseFiles = 0; return p }(),
		func() Profile { p := HP(100); p.Streams = 0; return p }(),
	}
	for i, p := range bad {
		if _, err := p.Generate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestPathPresenceMatchesProfile(t *testing.T) {
	hp := HP(2000).MustGenerate()
	for i := range hp.Records {
		if hp.Records[i].Path == "" {
			t.Fatal("HP record missing path")
		}
	}
	ins := INS(2000).MustGenerate()
	for i := range ins.Records {
		if ins.Records[i].Path != "" {
			t.Fatal("INS record unexpectedly has a path")
		}
	}
}

func TestNoiseRatioApproximate(t *testing.T) {
	p := HP(20000)
	tr := p.MustGenerate()
	noise := 0
	for i := range tr.Records {
		if tr.Records[i].Group < 0 {
			noise++
		}
	}
	got := float64(noise) / float64(tr.Len())
	if got < p.NoiseRatio-0.05 || got > p.NoiseRatio+0.05 {
		t.Fatalf("noise fraction = %v, want ~%v", got, p.NoiseRatio)
	}
}

// TestGroupAttributesConsistent: all non-noise accesses to a group must come
// from the group's bounded team (at most TeamSize distinct users), and each
// team member always uses the same program instance — the semantic signal
// FARMER mines.
func TestGroupAttributesConsistent(t *testing.T) {
	p := HP(10000)
	tr := p.MustGenerate()
	uidsOf := map[int32]map[uint32]struct{}{}
	pidOf := map[int32]map[uint32]uint32{} // group -> uid -> pid
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Group < 0 {
			continue
		}
		us := uidsOf[r.Group]
		if us == nil {
			us = map[uint32]struct{}{}
			uidsOf[r.Group] = us
		}
		us[r.UID] = struct{}{}
		if len(us) > p.TeamSize {
			t.Fatalf("group %d touched by %d users, team size %d", r.Group, len(us), p.TeamSize)
		}
		pm := pidOf[r.Group]
		if pm == nil {
			pm = map[uint32]uint32{}
			pidOf[r.Group] = pm
		}
		if prev, ok := pm[r.UID]; ok && prev != r.PID {
			t.Fatalf("group %d user %d seen with pids %d and %d", r.Group, r.UID, prev, r.PID)
		}
		pm[r.UID] = r.PID
	}
}

// TestGroupFilesShareDirectory: files of one group live in one directory
// (the paper's "users deposit related files in one specific directory").
func TestGroupFilesShareDirectory(t *testing.T) {
	tr := HP(10000).MustGenerate()
	dirOf := map[int32]string{}
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Group < 0 {
			continue
		}
		d := r.Dir()
		if prev, ok := dirOf[r.Group]; ok && prev != d {
			t.Fatalf("group %d spans directories %q and %q", r.Group, prev, d)
		}
		dirOf[r.Group] = d
	}
}

// TestConditioningHelps: the Fig.-1 property must hold on every profile —
// conditioning the successor statistic on (uid,pid) beats no conditioning.
func TestConditioningHelps(t *testing.T) {
	for _, p := range Profiles(20000) {
		tr := p.MustGenerate()
		pNone := trace.SuccessorProbability(tr, trace.KeyNone)
		pPid := trace.SuccessorProbability(tr, trace.KeyUIDPID)
		if pPid <= pNone {
			t.Errorf("%s: conditioning did not help (none=%.3f uidpid=%.3f)", p.Name, pNone, pPid)
		}
	}
}

// TestINSMoreRegularThanRES: the profiles must preserve the paper's
// regularity ordering, which drives the hit-ratio ordering in Fig. 3/7.
func TestINSMoreRegularThanRES(t *testing.T) {
	ins := INS(20000).MustGenerate()
	res := RES(20000).MustGenerate()
	pi := trace.SuccessorProbability(ins, trace.KeyUIDPID)
	pr := trace.SuccessorProbability(res, trace.KeyUIDPID)
	if pi <= pr {
		t.Fatalf("INS regularity %.3f should exceed RES %.3f", pi, pr)
	}
}

func TestGroundTruth(t *testing.T) {
	tr := HP(10000).MustGenerate()
	gt := GroundTruth(tr)
	if len(gt) == 0 {
		t.Fatal("no ground truth extracted")
	}
	for f, members := range gt {
		found := false
		for _, m := range members {
			if m == f {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("file %d not a member of its own group", f)
		}
	}
	// A noise file must not appear in the map.
	for i := range tr.Records {
		r := &tr.Records[i]
		if r.Group < 0 {
			if _, ok := gt[r.File]; ok {
				t.Fatalf("noise file %d has ground truth", r.File)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"LLNL", "INS", "RES", "HP"} {
		p, ok := ByName(name, 100)
		if !ok || p.Name != name {
			t.Fatalf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("NFS", 100); ok {
		t.Fatal("unknown profile found")
	}
}

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 1)) }

func TestZipfCDFProperty(t *testing.T) {
	f := func(seed uint64, n uint8, sSel uint8) bool {
		groups := int(n%50) + 2
		s := 0.5 + float64(sSel%20)/10
		p := Profile{Seed: seed}
		_ = p
		rng := newRNG(seed)
		cdf := zipfCDF(groups, s, rng)
		if len(cdf) != groups {
			return false
		}
		prev := 0.0
		for _, v := range cdf {
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return cdf[groups-1] == 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleCDFBounds(t *testing.T) {
	rng := newRNG(1)
	cdf := zipfCDF(10, 1.0, rng)
	for i := 0; i < 1000; i++ {
		idx := sampleCDF(cdf, rng)
		if idx < 0 || idx >= 10 {
			t.Fatalf("sample %d out of range", idx)
		}
	}
}

func TestFileCountCoversAllRecords(t *testing.T) {
	for _, p := range Profiles(3000) {
		tr := p.MustGenerate()
		for i := range tr.Records {
			if int(tr.Records[i].File) >= tr.FileCount {
				t.Fatalf("%s: file id beyond FileCount", p.Name)
			}
		}
		if tr.HasPaths && len(tr.Paths) != tr.FileCount {
			t.Fatalf("%s: paths table incomplete", p.Name)
		}
	}
}
