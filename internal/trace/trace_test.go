package trace

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func sampleTrace() *Trace {
	t := &Trace{Name: "sample", FileCount: 4, HasPaths: true}
	paths := []string{"/home/a/x", "/home/a/y", "/var/log/z", "/tmp/w"}
	for i := 0; i < 8; i++ {
		t.Records = append(t.Records, Record{
			Seq:   uint64(i),
			Time:  time.Duration(i) * time.Millisecond,
			File:  FileID(i % 4),
			Op:    Op(i % int(numOps)),
			UID:   uint32(i % 2),
			PID:   uint32(100 + i%3),
			Host:  uint32(i % 2),
			Dev:   uint32(7),
			Size:  uint32(i * 512),
			Group: int32(i%2) - 1,
			Path:  paths[i%4],
		})
	}
	return t
}

func TestValidateOK(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesBadSeq(t *testing.T) {
	tr := sampleTrace()
	tr.Records[3].Seq = 99
	if tr.Validate() == nil {
		t.Fatal("bad Seq not detected")
	}
}

func TestValidateCatchesTimeRegression(t *testing.T) {
	tr := sampleTrace()
	tr.Records[5].Time = 0
	if tr.Validate() == nil {
		t.Fatal("time regression not detected")
	}
}

func TestValidateCatchesFileRange(t *testing.T) {
	tr := sampleTrace()
	tr.Records[2].File = 100
	if tr.Validate() == nil {
		t.Fatal("out-of-range file not detected")
	}
}

func TestValidateCatchesMissingPath(t *testing.T) {
	tr := sampleTrace()
	tr.Records[1].Path = ""
	if tr.Validate() == nil {
		t.Fatal("missing path not detected")
	}
}

func TestOpRoundTrip(t *testing.T) {
	for o := Op(0); o < numOps; o++ {
		got, err := ParseOp(o.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", o.String(), err)
		}
		if got != o {
			t.Fatalf("op %v round-tripped to %v", o, got)
		}
	}
	if _, err := ParseOp("fsync"); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestDirBase(t *testing.T) {
	cases := []struct{ path, dir, base string }{
		{"/home/user1/paper/a", "/home/user1/paper", "a"},
		{"/a", "/", "a"},
		{"", "", ""},
	}
	for _, c := range cases {
		r := Record{Path: c.path}
		if got := r.Dir(); got != c.dir {
			t.Errorf("Dir(%q) = %q, want %q", c.path, got, c.dir)
		}
		if got := r.Base(); got != c.base {
			t.Errorf("Base(%q) = %q, want %q", c.path, got, c.base)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if !reflect.DeepEqual(tr.Records, got.Records) {
		t.Fatalf("records differ\nwant %+v\ngot  %+v", tr.Records[0], got.Records[0])
	}
	if got.Name != tr.Name || got.FileCount != tr.FileCount || got.HasPaths != tr.HasPaths {
		t.Fatalf("metadata differs: %+v", got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(tr.Records, got.Records) {
		t.Fatal("records differ after binary round trip")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestTextRejectsGarbage(t *testing.T) {
	if _, err := ReadText(bytes.NewReader([]byte("not a trace\n"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 42))
		tr := &Trace{Name: "prop", FileCount: 16, HasPaths: false}
		for i := 0; i < int(n); i++ {
			tr.Records = append(tr.Records, Record{
				Seq:   uint64(i),
				Time:  time.Duration(i) * time.Microsecond,
				File:  FileID(rng.IntN(16)),
				Op:    Op(rng.IntN(int(numOps))),
				UID:   rng.Uint32(),
				PID:   rng.Uint32(),
				Host:  rng.Uint32(),
				Dev:   rng.Uint32(),
				Size:  rng.Uint32(),
				Group: int32(rng.IntN(10)) - 1,
			})
		}
		var b1, b2 bytes.Buffer
		if err := WriteText(&b1, tr); err != nil {
			return false
		}
		if err := WriteBinary(&b2, tr); err != nil {
			return false
		}
		t1, err := ReadText(&b1)
		if err != nil {
			return false
		}
		t2, err := ReadBinary(&b2)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr.Records, t1.Records) && reflect.DeepEqual(tr.Records, t2.Records)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	tr := sampleTrace()
	s := Summarize(tr)
	if s.Records != 8 || s.Files != 4 {
		t.Fatalf("Summarize basic counts wrong: %+v", s)
	}
	if s.Users != 2 || s.Processes != 3 || s.Hosts != 2 {
		t.Fatalf("Summarize attribute counts wrong: %+v", s)
	}
	if s.Groups != 1 { // groups -1 (noise) and 0; only 0 counts
		t.Fatalf("Groups = %d, want 1", s.Groups)
	}
}

// TestSuccessorProbabilityConditioning builds a trace where two processes
// each access a perfectly regular cycle, but the global interleaving destroys
// the pattern. Conditioning on PID must recover probability 1.0 while the
// unconditioned stream stays low — this is the paper's Fig. 1 argument in
// miniature.
func TestSuccessorProbabilityConditioning(t *testing.T) {
	tr := &Trace{Name: "cond", FileCount: 6}
	seqA := []FileID{0, 1, 2}
	seqB := []FileID{3, 4, 5}
	rng := rand.New(rand.NewPCG(7, 7))
	var seq uint64
	add := func(f FileID, pid uint32) {
		tr.Records = append(tr.Records, Record{Seq: seq, Time: time.Duration(seq), File: f, PID: pid})
		seq++
	}
	ai, bi := 0, 0
	for i := 0; i < 600; i++ {
		if rng.IntN(2) == 0 {
			add(seqA[ai%3], 1)
			ai++
		} else {
			add(seqB[bi%3], 2)
			bi++
		}
	}
	pPID := SuccessorProbability(tr, KeyPID)
	pNone := SuccessorProbability(tr, KeyNone)
	if pPID < 0.99 {
		t.Fatalf("PID-conditioned probability = %v, want ~1", pPID)
	}
	if pNone > 0.8 {
		t.Fatalf("unconditioned probability = %v, want well below 1", pNone)
	}
	if pNone >= pPID {
		t.Fatalf("conditioning did not help: none=%v pid=%v", pNone, pPID)
	}
}

func TestSuccessorProbabilityEmpty(t *testing.T) {
	if p := SuccessorProbability(&Trace{}, KeyNone); p != 0 {
		t.Fatalf("empty trace probability = %v, want 0", p)
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := sampleTrace()
	c := tr.Clone()
	c.Records[0].File = 3
	if tr.Records[0].File == 3 {
		t.Fatal("Clone shares record storage")
	}
}

func TestSlice(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Slice(-5, 3); len(got) != 3 {
		t.Fatalf("Slice(-5,3) len = %d", len(got))
	}
	if got := tr.Slice(6, 100); len(got) != 2 {
		t.Fatalf("Slice(6,100) len = %d", len(got))
	}
	if got := tr.Slice(5, 5); got != nil {
		t.Fatalf("empty slice not nil")
	}
}

func TestKeyDirConditioning(t *testing.T) {
	a := Record{Path: "/home/u/proj/f1"}
	b := Record{Path: "/home/u/proj/f2"}
	c := Record{Path: "/var/log/syslog"}
	if KeyDir(&a) != KeyDir(&b) {
		t.Fatal("same-directory records keyed differently")
	}
	if KeyDir(&a) == KeyDir(&c) {
		t.Fatal("distinct directories collided")
	}
}

func TestSuccessorProbabilitySelfRepeats(t *testing.T) {
	tr := &Trace{Name: "rep", FileCount: 2}
	for i := 0; i < 10; i++ {
		tr.Records = append(tr.Records, Record{Seq: uint64(i), File: FileID(i % 2)})
	}
	p := SuccessorProbability(tr, KeyNone)
	if p < 0.99 {
		t.Fatalf("alternating trace probability = %v, want ~1", p)
	}
}
