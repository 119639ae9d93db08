package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime/metrics"
	"strings"
	"testing"

	"farmer/internal/bin"
	"farmer/internal/core"
	"farmer/internal/trace"
)

// FuzzFrameCodec feeds arbitrary bytes through the frame reader. Nothing may
// panic or allocate unboundedly; whatever decodes must re-encode to the same
// bytes. (The bodies a frame carries are FuzzBodyDecoders' job.)
func FuzzFrameCodec(f *testing.F) {
	// Seed with one well-formed frame per message type that carries a body.
	rec := trace.Record{Seq: 1, File: 7, UID: 2, PID: 3, Host: 4, Dev: 5, Size: 6, Group: -1, Path: "/a/b"}
	f.Add(AppendFrame(nil, MsgFeed, 1, trace.AppendRecord(nil, &rec)))
	f.Add(AppendFrame(nil, MsgFeedBatch, 2, appendRecords(nil, []trace.Record{rec, rec})))
	f.Add(AppendFrame(nil, MsgPredict, 3, appendPredictReq(nil, 9, 4)))
	f.Add(AppendFrame(nil, MsgType(9), 4, unhex(f, retiredEventsHex))) // a retired type still frames
	f.Add(AppendFrame(nil, MsgErr, 5, appendWireError(nil, CodeInternal, "boom")))
	f.Add(AppendFrameTenant(nil, MsgFeed, 6, "tenant-a", trace.AppendRecord(nil, &rec)))
	f.Add(AppendFrameTenant(nil, MsgHello, 7, "t.0", appendHello(nil, "secret")))
	f.Add(AppendFrame(nil, MsgType(13), 8, unhex(f, retiredGroupsReqHex)))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		re := AppendFrameTenant(nil, fr.Type, fr.ID, fr.Tenant, fr.Body)
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("frame re-encode mismatch:\n in  %x\n out %x", data[:len(re)], re)
		}
	})
}

// bodyCodecs is every body decoder the wire has, each paired with the
// encoder that must give its input back: a decoder refuses trailing bytes,
// unknown flag bits and impossible counts, so whatever it accepts has
// exactly one encoding.
var bodyCodecs = []struct {
	name      string
	roundTrip func(b []byte) ([]byte, error)
}{
	{"wire_error", func(b []byte) ([]byte, error) {
		var we *WireError
		if err := decodeWireError(b); !errors.As(err, &we) {
			return nil, err
		}
		return appendWireError(nil, we.Code, we.Msg), nil
	}},
	{"feed", func(b []byte) ([]byte, error) {
		c := bin.Read("rpc: feed", b)
		r := bin.Via(&c, trace.ConsumeRecord)
		return trace.AppendRecord(nil, &r), c.Done()
	}},
	{"records", func(b []byte) ([]byte, error) {
		recs, err := consumeRecords(b)
		return appendRecords(nil, recs), err
	}},
	{"predict_req", func(b []byte) ([]byte, error) {
		f, k, err := decodePredictReq(b)
		return appendPredictReq(nil, f, k), err
	}},
	{"predict_resp", func(b []byte) ([]byte, error) {
		files, err := decodePredictResp(b)
		return trace.AppendFileIDs(nil, files), err
	}},
	{"list_req", func(b []byte) ([]byte, error) {
		f, err := decodeListReq(b)
		return binary.LittleEndian.AppendUint32(nil, uint32(f)), err
	}},
	{"list_resp", func(b []byte) ([]byte, error) {
		list, err := decodeListResp(b)
		return core.AppendCorrelators(nil, list), err
	}},
	{"stats", func(b []byte) ([]byte, error) {
		st, err := consumeStats(b)
		return appendStats(nil, st), err
	}},
	{"catchup", func(b []byte) ([]byte, error) {
		cut, err := decodeCatchup(b)
		return appendCatchup(nil, &cut), err
	}},
	{"catchup_delta", func(b []byte) ([]byte, error) {
		d, err := decodeCatchupDelta(b)
		return appendCatchupDelta(nil, &d), err
	}},
	{"replicate", func(b []byte) ([]byte, error) {
		pos, kind, payload, err := decodeReplicate(b)
		out := append(binary.LittleEndian.AppendUint64(nil, pos), kind)
		return append(out, payload...), err
	}},
	{"hello", func(b []byte) ([]byte, error) {
		token, err := decodeHello(b)
		return appendHello(nil, token), err
	}},
	{"tenant_infos", func(b []byte) ([]byte, error) {
		infos, err := decodeTenantInfos(b)
		return appendTenantInfos(nil, infos), err
	}},
	{"lease_info", func(b []byte) ([]byte, error) {
		info, err := decodeLeaseInfo(b)
		return appendLeaseInfo(nil, &info), err
	}},
	{"lease_req", func(b []byte) ([]byte, error) {
		epoch, cand, err := decodeLeaseReq(b)
		return appendLeaseReq(nil, epoch, cand), err
	}},
	{"handoff_req", func(b []byte) ([]byte, error) {
		target, err := decodeHandoffReq(b)
		return appendHandoffReq(nil, target), err
	}},
	{"wire_stats", func(b []byte) ([]byte, error) {
		stats, err := decodeWireStats(b)
		return appendWireStats(nil, stats), err
	}},
	{"obs_req", func(b []byte) ([]byte, error) {
		k, err := decodeObsReq(b)
		return appendObsReq(nil, k), err
	}},
	{"tenant_obs", func(b []byte) ([]byte, error) {
		rows, err := decodeTenantObs(b)
		return appendTenantObs(nil, rows), err
	}},
}

// allocatedBy reports the heap bytes allocated while f ran. The counter is
// process-wide, so a reading over limit is taken again: another goroutine's
// burst does not repeat, a decoder that believes a hostile count does.
func allocatedBy(limit uint64, f func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var grew uint64
	for try := 0; try < 2; try++ {
		metrics.Read(s)
		before := s[0].Value.Uint64()
		f()
		metrics.Read(s)
		if grew = s[0].Value.Uint64() - before; grew <= limit {
			break
		}
	}
	return grew
}

// FuzzBodyDecoders runs every body decoder on arbitrary bytes — the input a
// server (or a client, or a follower mid catch-up) takes off the network.
// No decoder may panic; none may allocate out of proportion to its input (a
// 4-byte count must not size a slice); and whatever one accepts must
// re-encode to the bytes it was given.
func FuzzBodyDecoders(f *testing.F) {
	for _, g := range goldenBodies {
		f.Add(unhex(f, g.hex))
	}
	for _, h := range []string{goldenPredictRespHex, goldenListReqHex, goldenListRespHex} {
		f.Add(unhex(f, h))
	}
	rec := trace.Record{Seq: 1, File: 7, UID: 2, PID: 3, Host: 4, Dev: 5, Size: 6, Group: -1, Path: "/a/b"}
	f.Add(trace.AppendRecord(nil, &rec))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	// What an old sender put in a type-9 frame, and the hostile floats its
	// decoder was seeded with, aimed at the one that still takes floats off
	// the wire: a Correlator List.
	f.Add(unhex(f, retiredEventsHex))
	// What an old sender put in the retired replica-group frames.
	for _, h := range []string{retiredReplicateGroupsHex, retiredGroupsReqHex, retiredGroupsInfoHex} {
		f.Add(unhex(f, h))
	}
	for _, degree := range []float64{math.Inf(1), math.NaN(), -1, 1e308} {
		f.Add(core.AppendCorrelators(nil, []core.Correlator{{File: 9, Degree: degree, Sim: 0.5, Freq: 0.5}}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoded values are a few times their encoding (a 4-byte id list entry
		// is 4 bytes, a 28-byte list entry 32).
		limit := 64*uint64(len(data)) + 1<<20
		for _, bc := range bodyCodecs {
			var out []byte
			var err error
			if grew := allocatedBy(limit, func() { out, err = bc.roundTrip(data) }); grew > limit {
				t.Fatalf("%s allocated %d bytes decoding %d", bc.name, grew, len(data))
			}
			if err == nil && !bytes.Equal(out, data) {
				t.Fatalf("%s accepted\n  %x but re-encodes it as\n  %x", bc.name, data, out)
			}
		}
	})
}

// TestBodyDecodersAreExact states the wire's strictness, one row per decoder
// and golden body of its own: what it accepts it refuses with one more byte
// on the end — the client's predict and list response decoders included —
// and with its last byte cut off. The two bodies that end in "the rest" (a
// catch-up snapshot, a replicate payload) take any tail by design and are
// only held to their fixed header; a replicate payload is decoded exactly by
// the records row.
func TestBodyDecodersAreExact(t *testing.T) {
	rec := goldenRecs[0]
	bodies := map[string][]byte{
		"predict_resp": unhex(t, goldenPredictRespHex), "list_req": unhex(t, goldenListReqHex),
		"list_resp": unhex(t, goldenListRespHex), "feed": trace.AppendRecord(nil, &rec),
	}
	for _, g := range goldenBodies {
		bodies[g.name] = unhex(t, g.hex)
	}
	fixedHeader := map[string]int{"catchup": 20, "replicate": 9}
	for _, bc := range bodyCodecs {
		rows := 0
		for name, b := range bodies {
			if !strings.HasPrefix(name, bc.name) {
				continue
			}
			rows++
			if _, err := bc.roundTrip(b); err != nil {
				t.Errorf("%s refuses the golden %s body: %v", bc.name, name, err)
			}
			cut, hasTail := fixedHeader[bc.name]
			if !hasTail {
				cut = len(b)
				if _, err := bc.roundTrip(append(b[:len(b):len(b)], 0)); err == nil {
					t.Errorf("%s accepts the %s body plus a trailing byte", bc.name, name)
				}
			}
			if _, err := bc.roundTrip(b[:cut-1]); err == nil {
				t.Errorf("%s accepts the %s body cut to %d bytes", bc.name, name, cut-1)
			}
		}
		if rows == 0 {
			t.Errorf("%s has no golden body", bc.name)
		}
	}
}
