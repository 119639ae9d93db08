package rpc

import (
	"bufio"
	"context"
	"encoding/hex"
	"net"
	"reflect"
	"testing"

	"farmer/internal/core"
	"farmer/internal/trace"
)

// The wire is frozen at ProtocolVersion 2: one fixed hex literal per message
// body. This file was written against the commit before the decoders moved
// onto the shared cursor and passes unmodified on both sides of that change,
// so it names only body codecs both sides have; the three bodies whose
// helpers were private to the old layout (predict response, list request,
// list response) are pinned through a live Server and a live Client instead.

type goldenBody struct {
	name string
	hex  string
	enc  func() []byte
	dec  func([]byte) (any, error)
	want any
}

type replicateBody struct {
	Pos     uint64
	Kind    byte
	Payload []byte
}

type leaseReqBody struct {
	Epoch     uint64
	Candidate string
}

type predictReqBody struct {
	File trace.FileID
	K    int
}

var (
	goldenRecs = []trace.Record{
		{Seq: 1, Time: 5, File: 7, Op: 2, UID: 2, PID: 3, Host: 4, Dev: 5, Size: 6, Group: -1, Path: "/a/b"},
		{Seq: 2, File: 0x0304, UID: 2, PID: 3},
	}
	goldenStats     = core.Stats{Fed: 1, TrackedFiles: 2, Lists: 3, Correlators: 4, GraphNodes: 5, GraphEdges: 6, MemoryBytes: 7}
	goldenGroupsReq = GroupsReq{FileCount: 300, MinDegree: 0.45, Read: true}
	goldenLease     = LeaseInfo{Epoch: 3, Leader: "10.0.0.1:4727", TTLMS: 1500, Self: true, Transfer: true}
	goldenObs       = []TenantObs{
		{Name: "alpha", Fed: 1, MemoryBytes: 2, TapDepth: 3, TapDropped: 4, FeedRecords: 5, FeedFrames: 6,
			ReplLagMax: 7, Followers: 8, CkptAgeMS: NeverCheckpointed, CkptEpoch: 10, CkptFull: 11, CkptDelta: 12,
			PredPredicted: 13, PredHits: 14, LeaseEpoch: 15,
			Groups: []ObsGroup{{Seed: 7, Strength: 1.5, Files: []trace.FileID{8, 0x0304}}, {Seed: 9, Strength: 0.5}}},
		{Name: ""},
	}
	goldenFiles = []trace.FileID{8, 0x0304, 1}
	goldenList  = []core.Correlator{
		{File: 9, Degree: 0.82, Sim: 0.875, Freq: 0.69},
		{File: 0x0304, Degree: 0.5, Sim: 0.75, Freq: 0.25},
	}
)

var goldenBodies = []goldenBody{
	{"wire_error", "0900050000007374616c65",
		func() []byte { return appendWireError(nil, CodeStaleEpoch, "stale") },
		func(b []byte) (any, error) { return decodeWireError(b), nil },
		error(&WireError{Code: CodeStaleEpoch, Msg: "stale"})},
	{"records", "020000000100000000000000050000000000000002070000000200000003000000040000000500000006000000ffffffff040000002f612f6202000000000000000000000000000000000403000002000000030000000000000000000000000000000000000000000000",
		func() []byte { return appendRecords(nil, goldenRecs) },
		func(b []byte) (any, error) { return consumeRecords(b) },
		goldenRecs},
	{"predict_req", "0403000004000000",
		func() []byte { return appendPredictReq(nil, 0x0304, 4) },
		func(b []byte) (any, error) { f, k, err := decodePredictReq(b); return predictReqBody{f, k}, err },
		predictReqBody{0x0304, 4}},
	{"stats", "0100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000",
		func() []byte { return appendStats(nil, goldenStats) },
		func(b []byte) (any, error) { return consumeStats(b) },
		goldenStats},
	{"catchup", "2800000000000000cefaedfe000000000c000000736e6170",
		func() []byte {
			return appendCatchup(nil, &CatchupCut{Pos: 40, Fingerprint: 0xfeedface, FileCount: 12, Snapshot: []byte("snap")})
		},
		func(b []byte) (any, error) { return decodeCatchup(b) },
		CatchupCut{Pos: 40, Fingerprint: 0xfeedface, FileCount: 12, Snapshot: []byte("snap")}},
	{"catchup_delta_chunk", "280000000000000000000000000000000000000000010000000100000000000000050000000000000002070000000200000003000000040000000500000006000000ffffffff040000002f612f62",
		func() []byte { return appendCatchupDelta(nil, &CatchupDelta{FromPos: 40, Records: goldenRecs[:1]}) },
		func(b []byte) (any, error) { return decodeCatchupDelta(b) },
		CatchupDelta{FromPos: 40, Records: goldenRecs[:1]}},
	{"catchup_delta_final", "2900000000000000cefaedfe000000000c000000010100000002000000000000000000000000000000000403000002000000030000000000000000000000000000000000000000000000",
		func() []byte {
			return appendCatchupDelta(nil, &CatchupDelta{FromPos: 41, Fingerprint: 0xfeedface, FileCount: 12, Final: true, Records: goldenRecs[1:]})
		},
		func(b []byte) (any, error) { return decodeCatchupDelta(b) },
		CatchupDelta{FromPos: 41, Fingerprint: 0xfeedface, FileCount: 12, Final: true, Records: goldenRecs[1:]}},
	{"replicate_records", "2800000000000000000100000002000000000000000000000000000000000403000002000000030000000000000000000000000000000000000000000000",
		func() []byte { return appendReplicateRecords(nil, 40, goldenRecs[1:]) },
		func(b []byte) (any, error) {
			pos, kind, payload, err := decodeReplicate(b)
			return replicateBody{pos, kind, payload}, err
		},
		replicateBody{40, replKindRecords, appendRecords(nil, goldenRecs[1:])}},
	{"replicate_groups", "2900000000000000012c010000cdccccccccccdc3f01",
		func() []byte { return appendReplicateGroups(nil, 41, &goldenGroupsReq) },
		func(b []byte) (any, error) {
			pos, kind, payload, err := decodeReplicate(b)
			return replicateBody{pos, kind, payload}, err
		},
		replicateBody{41, replKindGroups, appendGroupsReq(nil, &goldenGroupsReq)}},
	{"groups_req", "2c010000cdccccccccccdc3f01",
		func() []byte { return appendGroupsReq(nil, &goldenGroupsReq) },
		func(b []byte) (any, error) { return decodeGroupsReq(b) },
		goldenGroupsReq},
	{"groups_info", "cefaedfe00000000050000000900000000000000",
		func() []byte {
			return appendGroupsInfo(nil, GroupsInfo{Fingerprint: 0xfeedface, Groups: 5, Versions: 9})
		},
		func(b []byte) (any, error) { return decodeGroupsInfo(b) },
		GroupsInfo{Fingerprint: 0xfeedface, Groups: 5, Versions: 9}},
	{"hello", "06000000736563726574",
		func() []byte { return appendHello(nil, "secret") },
		func(b []byte) (any, error) { return decodeHello(b) },
		"secret"},
	{"tenant_infos", "0200000005616c7068610100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
		func() []byte {
			return appendTenantInfos(nil, []TenantInfo{{Name: "alpha", Stats: goldenStats}, {Name: ""}})
		},
		func(b []byte) (any, error) { return decodeTenantInfos(b) },
		[]TenantInfo{{Name: "alpha", Stats: goldenStats}, {Name: ""}}},
	{"lease_info", "0300000000000000dc05000000000000030d31302e302e302e313a34373237",
		func() []byte { return appendLeaseInfo(nil, &goldenLease) },
		func(b []byte) (any, error) { return decodeLeaseInfo(b) },
		goldenLease},
	{"lease_req", "04000000000000000d31302e302e302e323a34373237",
		func() []byte { return appendLeaseReq(nil, 4, "10.0.0.2:4727") },
		func(b []byte) (any, error) { e, c, err := decodeLeaseReq(b); return leaseReqBody{e, c}, err },
		leaseReqBody{4, "10.0.0.2:4727"}},
	{"handoff_req", "0d0031302e302e302e323a34373237",
		func() []byte { return appendHandoffReq(nil, "10.0.0.2:4727") },
		func(b []byte) (any, error) { return decodeHandoffReq(b) },
		"10.0.0.2:4727"},
	{"wire_stats", "0200000002030000000000000094110000000000001201000000000000000900000000000000",
		func() []byte {
			return appendWireStats(nil, []WireStat{{Type: MsgFeed, Count: 3, SumNS: 4500}, {Type: MsgObs, Count: 1, SumNS: 9}})
		},
		func(b []byte) (any, error) { return decodeWireStats(b) },
		[]WireStat{{Type: MsgFeed, Count: 3, SumNS: 4500}, {Type: MsgObs, Count: 1, SumNS: 9}}},
	{"obs_req", "0500000000",
		func() []byte { return appendObsReq(nil, 5) },
		func(b []byte) (any, error) { return decodeObsReq(b) },
		5},
	{"tenant_obs", "0200000005616c70686101000000000000000200000000000000030000000000000004000000000000000500000000000000060000000000000007000000000000000800000000000000ffffffffffffffff0a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f000000000000000200000007000000000000000000f83f02000000080000000403000009000000000000000000e03f000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
		func() []byte { return appendTenantObs(nil, goldenObs) },
		func(b []byte) (any, error) { return decodeTenantObs(b) },
		goldenObs},
}

// The three bodies pinned over a live connection.
const (
	goldenPredictRespHex = "03000000080000000403000001000000"
	goldenListReqHex     = "04030000"
	goldenListRespHex    = "02000000090000003d0ad7a3703dea3f000000000000ec3f14ae47e17a14e63f04030000000000000000e03f000000000000e83f000000000000d03f"
)

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWireGoldenBytes(t *testing.T) {
	if ProtocolVersion != 2 {
		t.Fatalf("ProtocolVersion = %d; a byte-level change needs a version bump and new literals", ProtocolVersion)
	}
	for _, g := range goldenBodies {
		if got := hex.EncodeToString(g.enc()); got != g.hex {
			t.Errorf("%s encodes to\n  %s, want\n  %s", g.name, got, g.hex)
		}
		got, err := g.dec(unhex(t, g.hex))
		if err != nil {
			t.Errorf("%s: decoding the golden bytes: %v", g.name, err)
		} else if !reflect.DeepEqual(got, g.want) {
			t.Errorf("%s decodes to\n  %+v, want\n  %+v", g.name, got, g.want)
		}
	}
}

// goldenBackend answers reads with the fixed values above.
type goldenBackend struct{ *minerBackend }

func (goldenBackend) Predict(f trace.FileID, k int) []trace.FileID {
	if f != 0x0304 || k != 4 {
		return nil
	}
	return goldenFiles
}

func (goldenBackend) CorrelatorList(f trace.FileID) []core.Correlator {
	if f != 0x0304 {
		return nil
	}
	return goldenList
}

// TestWireGoldenBytesLive pins the predict and list exchanges from both
// ends: a real Server must turn the golden request bytes into the golden
// response bytes, and a real Client must send the golden request bytes and
// decode the golden response bytes to the fixed values.
func TestWireGoldenBytesLive(t *testing.T) {
	addr, _, stop := startServer(t, goldenBackend{newMinerBackend(1)})
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	serverAnswers := func(typ MsgType, reqHex string) string {
		t.Helper()
		if _, err := conn.Write(AppendFrame(nil, typ, 1, unhex(t, reqHex))); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrame(br)
		if err != nil || f.Type != MsgOK {
			t.Fatalf("%v request answered %v, %v", typ, f.Type, err)
		}
		return hex.EncodeToString(f.Body)
	}
	predictReqHex := hex.EncodeToString(appendPredictReq(nil, 0x0304, 4))
	if got := serverAnswers(MsgPredict, predictReqHex); got != goldenPredictRespHex {
		t.Errorf("server's predict response is\n  %s, want\n  %s", got, goldenPredictRespHex)
	}
	if got := serverAnswers(MsgList, goldenListReqHex); got != goldenListRespHex {
		t.Errorf("server's list response is\n  %s, want\n  %s", got, goldenListRespHex)
	}

	// The client end, against a scripted peer.
	a, b := net.Pipe()
	c := NewClient(a)
	defer c.Close()
	defer b.Close()
	sent := make(chan string, 2)
	go func() {
		pbr := bufio.NewReader(b)
		for _, resp := range []string{goldenPredictRespHex, goldenListRespHex} {
			f, err := ReadFrame(pbr)
			if err != nil {
				return
			}
			sent <- hex.EncodeToString(f.Body)
			body, _ := hex.DecodeString(resp)
			if _, err := b.Write(AppendFrame(nil, MsgOK, f.ID, body)); err != nil {
				return
			}
		}
	}()
	files, err := c.Predict(context.Background(), 0x0304, 4)
	if err != nil || !reflect.DeepEqual(files, goldenFiles) {
		t.Errorf("client decoded the predict response to %v, %v; want %v", files, err, goldenFiles)
	}
	if got := <-sent; got != predictReqHex {
		t.Errorf("client's predict request is %s, want %s", got, predictReqHex)
	}
	list, err := c.CorrelatorList(context.Background(), 0x0304)
	if err != nil || !reflect.DeepEqual(list, goldenList) {
		t.Errorf("client decoded the list response to %+v, %v; want %+v", list, err, goldenList)
	}
	if got := <-sent; got != goldenListReqHex {
		t.Errorf("client's list request is %s, want %s", got, goldenListReqHex)
	}
}
