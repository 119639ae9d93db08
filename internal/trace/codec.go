package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"farmer/internal/bin"
)

// Text format: one record per line,
//
//	seq time_ns op file uid pid host dev size group path
//
// with path empty allowed (trailing field absent). A header line carries the
// trace metadata:
//
//	#farmer-trace v1 name=<name> files=<n> paths=<0|1>
const textMagic = "#farmer-trace v1"

// maxFileCount bounds the decoded FileCount header field. Consumers size
// loops and tables by it (store population, fingerprints, ground-truth
// maps), so a crafted header must not be able to demand billions of
// iterations before a single record has parsed. 1<<28 files is far beyond
// any trace this in-memory model can hold.
const maxFileCount = 1 << 28

// WriteText encodes the trace in the line-oriented text format.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	pathFlag := 0
	if t.HasPaths {
		pathFlag = 1
	}
	if _, err := fmt.Fprintf(bw, "%s name=%s files=%d paths=%d\n", textMagic, t.Name, t.FileCount, pathFlag); err != nil {
		return err
	}
	for i := range t.Records {
		r := &t.Records[i]
		if _, err := fmt.Fprintf(bw, "%d %d %s %d %d %d %d %d %d %d %s\n",
			r.Seq, int64(r.Time), r.Op, r.File, r.UID, r.PID, r.Host, r.Dev, r.Size, r.Group, r.Path); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText decodes a trace from the text format.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty input: %w", sc.Err())
	}
	header := sc.Text()
	if !strings.HasPrefix(header, textMagic) {
		return nil, fmt.Errorf("trace: bad magic %q", header)
	}
	t := &Trace{}
	for _, kv := range strings.Fields(header[len(textMagic):]) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("trace: bad header field %q", kv)
		}
		switch k {
		case "name":
			t.Name = v
		case "files":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("trace: bad files count: %w", err)
			}
			if n < 0 || n > maxFileCount {
				return nil, fmt.Errorf("trace: unreasonable file count %d", n)
			}
			t.FileCount = n
		case "paths":
			t.HasPaths = v == "1"
		}
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		var rec Record
		fields := strings.SplitN(line, " ", 11)
		if len(fields) < 10 {
			return nil, fmt.Errorf("trace: short record %q", line)
		}
		var err error
		if rec.Seq, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: bad seq: %w", err)
		}
		ns, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad time: %w", err)
		}
		rec.Time = time.Duration(ns)
		if rec.Op, err = ParseOp(fields[2]); err != nil {
			return nil, err
		}
		u32 := func(s, what string) (uint32, error) {
			v, err := strconv.ParseUint(s, 10, 32)
			if err != nil {
				return 0, fmt.Errorf("trace: bad %s: %w", what, err)
			}
			return uint32(v), nil
		}
		var v uint32
		if v, err = u32(fields[3], "file"); err != nil {
			return nil, err
		}
		rec.File = FileID(v)
		if rec.UID, err = u32(fields[4], "uid"); err != nil {
			return nil, err
		}
		if rec.PID, err = u32(fields[5], "pid"); err != nil {
			return nil, err
		}
		if rec.Host, err = u32(fields[6], "host"); err != nil {
			return nil, err
		}
		if rec.Dev, err = u32(fields[7], "dev"); err != nil {
			return nil, err
		}
		if rec.Size, err = u32(fields[8], "size"); err != nil {
			return nil, err
		}
		g, err := strconv.ParseInt(fields[9], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: bad group: %w", err)
		}
		rec.Group = int32(g)
		if len(fields) == 11 {
			rec.Path = fields[10]
		}
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// Binary format: little-endian, length-prefixed strings.
//
//	magic u32 = 0x4641524D ("FARM"), version u32 = 1
//	nameLen u32, name, fileCount u32, hasPaths u8, recCount u64, records...
var binMagic = uint32(0x4641524D)

// MaxPathLen bounds a decoded record's path. It guards every consumer of
// the record codec (trace files and the rpc wire format alike) against a
// crafted length field demanding a huge allocation.
const MaxPathLen = 1 << 20

// AppendRecord appends the binary encoding of one record to dst — the exact
// per-record layout of WriteBinary, shared with the rpc wire format:
//
//	seq u64, time u64, op u8,
//	file u32, uid u32, pid u32, host u32, dev u32, size u32, group u32,
//	pathLen u32, path
func AppendRecord(dst []byte, r *Record) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, r.Seq)
	dst = le.AppendUint64(dst, uint64(r.Time))
	dst = append(dst, byte(r.Op))
	for _, v := range [...]uint32{uint32(r.File), r.UID, r.PID, r.Host, r.Dev, r.Size, uint32(r.Group)} {
		dst = le.AppendUint32(dst, v)
	}
	dst = le.AppendUint32(dst, uint32(len(r.Path)))
	return append(dst, r.Path...)
}

// RecordFixedLen is the length of a record's fixed-size encoded prefix —
// seq + time, op, seven u32 fields, and the path length — i.e. the minimum
// AppendRecord output. Consumers of the record codec (the rpc wire format)
// size batches and bound allocations with it.
const RecordFixedLen = 8 + 8 + 1 + 7*4 + 4

// ConsumeRecord decodes one AppendRecord encoding from the front of b and
// returns the remaining bytes.
func ConsumeRecord(b []byte) (Record, []byte, error) {
	var r Record
	if len(b) < RecordFixedLen {
		return r, nil, fmt.Errorf("trace: short record: %d bytes", len(b))
	}
	le := binary.LittleEndian
	r.Seq = le.Uint64(b[0:8])
	r.Time = time.Duration(le.Uint64(b[8:16]))
	r.Op = Op(b[16])
	r.File = FileID(le.Uint32(b[17:21]))
	r.UID = le.Uint32(b[21:25])
	r.PID = le.Uint32(b[25:29])
	r.Host = le.Uint32(b[29:33])
	r.Dev = le.Uint32(b[33:37])
	r.Size = le.Uint32(b[37:41])
	r.Group = int32(le.Uint32(b[41:45]))
	n := le.Uint32(b[45:49])
	if n > MaxPathLen {
		return r, nil, fmt.Errorf("trace: unreasonable path length %d", n)
	}
	b = b[RecordFixedLen:]
	if uint32(len(b)) < n {
		return r, nil, fmt.Errorf("trace: record path truncated: want %d bytes, have %d", n, len(b))
	}
	r.Path = string(b[:n])
	return r, b[n:], nil
}

// AppendFileIDs appends a FileID list — u32 count, then the ids — the one
// encoding behind a Predict response, a MsgObs group's members and the
// store's m/window record.
func AppendFileIDs(dst []byte, files []FileID) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(files)))
	for _, f := range files {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f))
	}
	return dst
}

// ReadFileIDs reads an AppendFileIDs list (nil when empty).
func ReadFileIDs(c *bin.Cursor) []FileID {
	n := c.Count(4)
	if n == 0 {
		return nil
	}
	out := make([]FileID, n)
	for i := range out {
		out[i] = FileID(c.U32())
	}
	return out
}

// WriteBinary encodes the trace in the compact binary format.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	var scratch [8]byte
	putU32 := func(v uint32) error {
		le.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	putU64 := func(v uint64) error {
		le.PutUint64(scratch[:8], v)
		_, err := bw.Write(scratch[:8])
		return err
	}
	putStr := func(s string) error {
		if err := putU32(uint32(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := putU32(binMagic); err != nil {
		return err
	}
	if err := putU32(1); err != nil {
		return err
	}
	if err := putStr(t.Name); err != nil {
		return err
	}
	if err := putU32(uint32(t.FileCount)); err != nil {
		return err
	}
	hp := byte(0)
	if t.HasPaths {
		hp = 1
	}
	if err := bw.WriteByte(hp); err != nil {
		return err
	}
	if err := putU64(uint64(len(t.Records))); err != nil {
		return err
	}
	var rec []byte
	for i := range t.Records {
		rec = AppendRecord(rec[:0], &t.Records[i])
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a trace written by WriteBinary. Each record goes
// through ConsumeRecord, the decoder of the layout AppendRecord writes.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	le := binary.LittleEndian
	var buf []byte
	// read returns the next n bytes, valid until the next call.
	read := func(n int) ([]byte, error) {
		buf = slices.Grow(buf[:0], n)[:n]
		_, err := io.ReadFull(br, buf)
		return buf, err
	}
	h, err := read(12) // magic, version, name length
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if m := le.Uint32(h); m != binMagic {
		return nil, fmt.Errorf("trace: bad binary magic %#x", m)
	}
	if ver := le.Uint32(h[4:]); ver != 1 {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	nameLen := le.Uint32(h[8:])
	if nameLen > MaxPathLen {
		return nil, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	name, err := read(int(nameLen))
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: string(name)}
	if h, err = read(13); err != nil { // file count, has-paths flag, record count
		return nil, err
	}
	fc, n := le.Uint32(h), le.Uint64(h[5:])
	if fc > maxFileCount {
		return nil, fmt.Errorf("trace: unreasonable file count %d", fc)
	}
	t.FileCount, t.HasPaths = int(fc), h[4] == 1
	if n > 1<<32 {
		return nil, fmt.Errorf("trace: unreasonable record count %d", n)
	}
	if n > 0 {
		// Cap the up-front allocation: a hostile or corrupt header must not
		// be able to demand a huge buffer before a single record has parsed
		// (found by FuzzCodec — a flipped count field cost ~90MB per decode
		// attempt). Larger traces grow via amortized append as records
		// actually arrive.
		t.Records = make([]Record, 0, min(n, 4096))
	}
	for i := uint64(0); i < n; i++ {
		fixed, err := br.Peek(RecordFixedLen)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		pathLen := le.Uint32(fixed[RecordFixedLen-4:])
		if pathLen > MaxPathLen {
			return nil, fmt.Errorf("trace: record %d: unreasonable path length %d", i, pathLen)
		}
		b, err := read(RecordFixedLen + int(pathLen))
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		rec, _, err := ConsumeRecord(b)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		t.Records = append(t.Records, rec)
	}
	return t, nil
}
