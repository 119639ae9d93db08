// Package kvstore is the metadata store behind the simulated MDS — the role
// Berkeley DB plays in the HUSt prototype (paper §5.1: "The metadata
// information of files and objects are stored in the Berkeley DB"). It
// offers an ordered key space (a hash index with the key order built when a
// scan asks for it) and a write-ahead log with CRC framing for durability,
// which is the slice of Berkeley DB behaviour the experiments depend on. The
// log's frames double as the encoding a set of records travels in (Frames,
// ReadPuts).
package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// Store is an ordered key-value store: an in-memory hash index fronted by a
// CRC-framed write-ahead log whose writes outlive the process, not the
// machine (see Put). It is safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	idx    *index
	wal    *os.File // nil for a purely in-memory store
	walErr error    // set when the WAL was lost (failed compaction) or closed; mutations refuse
	frame  []byte   // scratch a lone Put or Delete is encoded in
	path   string
	stats  WriteStats
}

// errClosed is the walErr of a file-backed store after Close.
var errClosed = errors.New("kvstore: store closed")

// WriteStats counts the mutations a store has accepted — Puts, Deletes and
// the WAL frame bytes they encode (counted even for in-memory stores, where
// no log is written). Checkpoint code uses the deltas between readings as
// the observable cost of a save; a maintenance rewrite (Compact) is not
// counted.
type WriteStats struct {
	Puts    int64
	Deletes int64
	Bytes   int64
}

// WriteStats returns the cumulative mutation counters.
func (s *Store) WriteStats() WriteStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// ErrCorruptWAL reports that recovery met a frame whose CRC, structure or
// length does not check out — a truncated tail or a bit flip. Open refuses
// the store rather than silently loading the prefix; Repair truncates the
// log at the last intact record when the operator decides that loss is
// acceptable.
var ErrCorruptWAL = errors.New("kvstore: corrupt or truncated wal")

// Open creates or recovers a store whose WAL lives at path. An empty path
// yields a volatile in-memory store. A WAL that fails CRC or framing checks
// anywhere — truncated tail included — returns an error wrapping
// ErrCorruptWAL and leaves no file descriptor open; it never half-loads.
func Open(path string) (*Store, error) {
	s := &Store{idx: newIndex(), path: path}
	if path == "" {
		return s, nil
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: opening wal: %w", err)
	}
	s.wal = f
	return s, nil
}

func (s *Store) recover() error {
	// O_RDWR: recovery may need to truncate a torn batch tail (a crash
	// mid-checkpoint) so the log stays well-formed for future appends.
	f, err := os.OpenFile(s.path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("kvstore: recovering: %w", err)
	}
	defer f.Close()
	r := newWALReader(f)
	apply := func(rec walRecord) { s.idx.apply(rec.op, rec.key, rec.value, true) }
	// A walBegin opens a batch: its records are buffered and only applied
	// when the walCommit marker arrives. A log that ends inside a batch —
	// clean EOF or a torn record — is a crash mid-atomic-checkpoint: the
	// whole batch is discarded and the file truncated back to just before
	// the walBegin, leaving the pre-batch state intact.
	var (
		batchOff int64
		batch    []walRecord
	)
	dropTorn := func() error {
		if err := f.Truncate(batchOff); err != nil {
			return fmt.Errorf("kvstore: dropping torn batch: %w", err)
		}
		return f.Sync()
	}
	for {
		prevOff, inBatch := r.goodOff, r.inBatch
		rec, err := r.next()
		if errors.Is(err, io.EOF) {
			if inBatch {
				return dropTorn()
			}
			return nil
		}
		if errors.Is(err, errCorrupt) && inBatch {
			return dropTorn()
		}
		if errors.Is(err, ErrCorruptWAL) {
			// A damaged frame, or an intact one out of place (errMisplaced):
			// not what a crash leaves, so not Open's to cut — Repair's.
			return fmt.Errorf("kvstore: %s: record %d at offset %d: %w", s.path, r.records, prevOff, err)
		}
		if err != nil {
			return err
		}
		switch {
		case rec.op == walBegin:
			batchOff, batch = prevOff, batch[:0]
		case rec.op == walCommit:
			for _, br := range batch {
				apply(br)
			}
		case inBatch:
			batch = append(batch, rec)
		default:
			apply(rec)
		}
	}
}

// Repair truncates the WAL at path after its last intact record, dropping
// the suffix Open refuses to load: from the first damaged frame, or the
// first batch marker out of place, on. It returns how many records survive
// and how many bytes were cut. Repair of an intact (or absent) WAL is a
// no-op.
func Repair(path string) (kept int, dropped int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("kvstore: repairing: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size, r := fi.Size(), newWALReader(f)
	for {
		_, err := r.next()
		if errors.Is(err, io.EOF) {
			return r.records, 0, nil
		}
		if errors.Is(err, ErrCorruptWAL) {
			if err := f.Truncate(r.goodOff); err != nil {
				return r.records, 0, fmt.Errorf("kvstore: truncating wal: %w", err)
			}
			return r.records, size - r.goodOff, f.Sync()
		}
		if err != nil {
			return r.records, 0, err
		}
	}
}

// Get returns a copy of the value for key.
func (s *Store) Get(key []byte) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.idx.slots[string(key)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), s.idx.vals[i]...), true
}

// Put stores key=value: its WAL frame is handed to the OS, then the index is
// updated. Nothing calls fsync, so a Put survives a process crash but not a
// power loss (DESIGN.md, "What a written record survives").
func (s *Store) Put(key, value []byte) error { return s.write(walPut, key, value) }

// Delete removes key. Deleting an absent key is not an error.
func (s *Store) Delete(key []byte) error { return s.write(walDelete, key, nil) }

// write logs one walPut or walDelete frame, then applies it.
func (s *Store) write(op walOp, key, value []byte) error {
	if err := checkRecord(key, value); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.walErr; err != nil {
		// The durable log is gone (failed compaction) or closed; refusing
		// beats silently succeeding in memory only.
		return fmt.Errorf("kvstore: wal unavailable: %w", err)
	}
	if s.wal != nil {
		s.frame = appendFrame(s.frame[:0], op, key, value)
		if _, err := s.wal.Write(s.frame); err != nil {
			return err
		}
	}
	s.applyLocked(op, key, value)
	return nil
}

// applyLocked applies an accepted walPut or walDelete record to the index and
// counts it in the write stats. Callers hold s.mu.
func (s *Store) applyLocked(op walOp, key, value []byte) {
	s.idx.apply(op, key, value, false)
	if op == walPut {
		s.stats.Puts++
	} else {
		s.stats.Deletes++
	}
	s.stats.Bytes += int64(frameHeader + len(key) + len(value))
}

// checkRecord refuses a record the WAL reader would refuse to load back.
func checkRecord(key, value []byte) error {
	switch {
	case len(key) == 0:
		return errors.New("kvstore: empty key")
	case len(key) > maxKey:
		return fmt.Errorf("kvstore: %d-byte key, the log holds at most %d", len(key), maxKey)
	case len(value) > maxValue:
		return fmt.Errorf("kvstore: %d-byte value, the log holds at most %d", len(value), maxValue)
	}
	return nil
}

// Batch stages puts and deletes that commit atomically. Each staged record
// is encoded, CRC and all, as the WAL frame it will be, into one buffer that
// opens with the walBegin frame; the commit appends walCommit and writes the
// buffer whole, then applies the frames to the index, which copies each value
// (over the old value's bytes when they fit) and each new key out of them.
// Recovery after a crash mid-batch discards the half-written batch wholesale
// (a checkpoint is either entirely present or entirely absent — never torn).
// Callers may reuse their buffers.
type Batch struct{ buf []byte }

// batchBufs recycles batch buffers across commits. One over batchBufKeep,
// such as a full checkpoint's, is left to the collector.
var batchBufs = sync.Pool{New: func() any { return new([]byte) }}

const batchBufKeep = 4 << 20

// Put stages key=value.
func (b *Batch) Put(key, value []byte) error { return b.stage(walPut, key, value) }

// Delete stages removal of key. Deleting an absent key is not an error.
func (b *Batch) Delete(key []byte) error { return b.stage(walDelete, key, nil) }

func (b *Batch) stage(op walOp, key, value []byte) error {
	err := checkRecord(key, value)
	if err == nil {
		b.buf = appendFrame(b.buf, op, key, value)
	}
	return err
}

// Batch runs fn to stage a set of mutations, then commits them atomically:
// the walBegin frame, the staged frames and the walCommit frame in one write,
// and only then the index application. fn runs WITHOUT the store lock (so it
// may read the model under the model's own locks); an error from fn abandons
// the batch untouched. A write error mid-commit poisons the WAL (walErr) — a
// later append could otherwise land inside the unterminated batch and be
// silently discarded by recovery.
func (s *Store) Batch(fn func(*Batch) error) error {
	bp := batchBufs.Get().(*[]byte)
	b := Batch{buf: appendFrame((*bp)[:0], walBegin, nil, nil)}
	defer func() {
		if cap(b.buf) <= batchBufKeep {
			*bp = b.buf
			batchBufs.Put(bp)
		}
	}()
	if err := fn(&b); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.walErr; err != nil {
		return fmt.Errorf("kvstore: wal unavailable: %w", err)
	}
	frames := b.buf[frameHeader:]
	if err := s.commitLocked(&b.buf); err != nil {
		return err
	}
	for len(frames) > 0 {
		klen := binary.LittleEndian.Uint32(frames[5:9])
		vlen := binary.LittleEndian.Uint32(frames[9:13])
		key, value := frames[frameHeader:frameHeader+klen], frames[frameHeader+klen:frameHeader+klen+vlen]
		s.applyLocked(walOp(frames[4]), key, value)
		frames = frames[frameHeader+klen+vlen:]
	}
	return nil
}

// commitLocked appends the walCommit frame to buf, which opens with walBegin,
// and writes it whole; a failed write poisons the WAL (see Batch). A no-op
// for an in-memory store. Callers hold s.mu.
func (s *Store) commitLocked(buf *[]byte) error {
	if s.wal == nil {
		return nil
	}
	*buf = appendFrame(*buf, walCommit, nil, nil)
	if _, err := s.wal.Write(*buf); err != nil {
		s.walErr = err
		return fmt.Errorf("kvstore: batch commit: %w", err)
	}
	return nil
}

// Len reports the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.idx.slots)
}

// Scan visits keys in [from, to) in order; nil bounds are open. fn must not
// mutate the store, and must not keep key or value after it returns: a later
// write reuses their bytes.
func (s *Store) Scan(from, to []byte, fn func(key, value []byte) bool) {
	s.rlockSorted()
	defer s.mu.RUnlock()
	s.idx.ascend(from, to, fn)
}

// rlockSorted read-locks s with the index's key order fresh. A stale order is
// rebuilt under the write lock first, so two concurrent scans never race on
// it.
func (s *Store) rlockSorted() {
	s.mu.RLock()
	for s.idx.sorted == nil {
		s.mu.RUnlock()
		s.mu.Lock()
		s.idx.sort()
		s.mu.Unlock()
		s.mu.RLock()
	}
}

// writeAll writes a walPut frame for every key to w, in key order. Callers
// hold s.mu with the order fresh.
func (s *Store) writeAll(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var frame []byte
	var err error
	s.idx.ascend(nil, nil, func(k, v []byte) bool {
		frame = appendFrame(frame[:0], walPut, k, v)
		_, err = bw.Write(frame)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Frames runs fn to stage records into a batch that no store owns and
// returns what it staged: one WAL frame per record, no batch markers — a set
// of records in the log's encoding, to be shipped and read back with
// ReadPuts. An error from fn is returned with no frames.
func Frames(fn func(*Batch) error) ([]byte, error) {
	var b Batch
	if err := fn(&b); err != nil {
		return nil, err
	}
	return b.buf, nil
}

// ReadPuts reads frames that hold only puts — what Frames returns when fn
// staged no delete — and calls fn with each record's key and value, which
// are fn's to keep. A frame that does not check out, or that is not a put,
// is refused with an error wrapping ErrCorruptWAL; an error from fn stops the
// read and is returned. A frame header is believed only as far as its bytes
// are there (see walReader.next), so hostile frames cost nothing to refuse.
func ReadPuts(frames []byte, fn func(key, value []byte) error) error {
	r := newWALReader(bytes.NewReader(frames))
	for {
		rec, err := r.next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if rec.op != walPut {
			return fmt.Errorf("kvstore: op %d where only puts may stand: %w", rec.op, ErrCorruptWAL)
		}
		if err := fn(rec.key, rec.value); err != nil {
			return err
		}
	}
}

// Compact rewrites the WAL as one Put per live key, atomically replacing
// the log file (write to a temp file, fsync, rename). A store that is
// checkpointed repeatedly — every save appends full state — stays bounded
// at roughly one copy of the live data instead of growing by one copy per
// checkpoint. No-op for an in-memory store. Crash-safe: an interrupted
// compaction leaves the original log untouched (plus a harmless temp file).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path == "" {
		return nil
	}
	if err := s.walErr; err != nil {
		return fmt.Errorf("kvstore: wal unavailable: %w", err)
	}
	tmp := s.path + ".compact"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("kvstore: compacting: %w", err)
	}
	s.idx.sort()
	werr := s.writeAll(f)
	if werr == nil {
		werr = f.Sync()
	}
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("kvstore: compacting: %w", werr)
	}
	if err := s.wal.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("kvstore: compacting: closing old wal: %w", err)
	}
	s.wal = nil // old handle is gone; restored below or the store refuses writes
	if err := os.Rename(tmp, s.path); err != nil {
		os.Remove(tmp)
		// The old log still exists on disk; reattach to it so the store
		// stays durable despite the failed swap.
		return s.reattachWAL(fmt.Errorf("kvstore: compacting: %w", err))
	}
	// Crash-consistency rule: rename(2) only promises the swap is durable
	// once the PARENT DIRECTORY is synced — fsyncing the file covers its
	// contents, not the directory entry pointing at it. Without this, a
	// crash right after compaction can resurrect the old (pre-compaction)
	// WAL, silently undoing every checkpoint the compaction folded in.
	if err := syncDir(s.path); err != nil {
		return s.reattachWAL(fmt.Errorf("kvstore: compacting: syncing directory: %w", err))
	}
	return s.reattachWAL(nil)
}

// syncDir fsyncs the directory containing path.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// reattachWAL reopens the append handle on s.path after Compact dropped the
// old one, holding s.mu. On failure the store marks its WAL lost (walErr):
// every later mutation refuses rather than silently succeeding in memory —
// a checkpointing daemon must never believe writes are durable when they
// are not. cause, if non-nil, is the error that got us here and wins.
func (s *Store) reattachWAL(cause error) error {
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.walErr = err
		if cause != nil {
			return cause
		}
		return fmt.Errorf("kvstore: compacting: reopening wal: %w", err)
	}
	s.wal = f
	return cause
}

// Close flushes and closes the WAL. A closed file-backed store refuses every
// later mutation rather than accept it in memory only.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal, s.walErr = nil, errClosed
	return err
}

// ------------------------------------------------------------------- WAL

type walOp uint8

const (
	walPut walOp = iota + 1
	walDelete
	// walBegin/walCommit bracket an atomic batch (empty key and value).
	// Recovery buffers the records between them and applies the batch only
	// when the commit marker is intact; an unterminated batch is truncated
	// away. Logs written before these ops existed contain neither and
	// recover exactly as before.
	walBegin
	walCommit
)

// A frame is u32 crc (of everything after it), u8 op, u32 klen, u32 vlen,
// key, value. The reader refuses a key over maxKey or a value over maxValue
// bytes as corruption, so no writer writes one.
const (
	frameHeader = 4 + 1 + 4 + 4
	maxKey      = 1 << 24
	maxValue    = 1 << 28
)

// appendFrame appends one WAL frame to dst — the one encoder behind every
// record a store writes.
func appendFrame(dst []byte, op walOp, key, value []byte) []byte {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(op))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(value)))
	dst = append(append(dst, key...), value...)
	binary.LittleEndian.PutUint32(dst[off:], crc32.ChecksumIEEE(dst[off+4:]))
	return dst
}

type walRecord struct {
	op    walOp
	key   []byte
	value []byte
}

// errCorrupt is the reader-level corruption marker; it wraps ErrCorruptWAL
// so every path that surfaces it (Open, Repair, ReadPuts) matches
// errors.Is(err, ErrCorruptWAL).
var errCorrupt = fmt.Errorf("%w record", ErrCorruptWAL)

// errMisplaced marks an intact batch marker where none may stand: a begin
// inside a batch, or a commit outside one.
var errMisplaced = fmt.Errorf("%w: batch marker out of place", ErrCorruptWAL)

type walReader struct {
	br      *bufio.Reader
	goodOff int64 // offset just past the last fully verified record
	records int   // records verified so far
	inBatch bool  // past a walBegin, before its walCommit
	hdr     [frameHeader]byte
}

func newWALReader(r io.Reader) *walReader { return &walReader{br: bufio.NewReader(r)} }

func (r *walReader) next() (walRecord, error) {
	hdr, meta := r.hdr[:4], r.hdr[4:]
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return walRecord{}, errCorrupt
		}
		return walRecord{}, err
	}
	wantCRC := binary.LittleEndian.Uint32(hdr)
	if _, err := io.ReadFull(r.br, meta); err != nil {
		return walRecord{}, errCorrupt
	}
	klen := binary.LittleEndian.Uint32(meta[1:5])
	vlen := binary.LittleEndian.Uint32(meta[5:9])
	if klen > maxKey || vlen > maxValue {
		return walRecord{}, errCorrupt
	}
	// The payload grows as its bytes arrive, doubling: a header claiming
	// 272 MiB — from a torn disk page, or a catch-up snapshot straight off the
	// network — costs nothing until those bytes are actually there. A record
	// under 4 KiB (every one a checkpoint writes) is still one exact allocation.
	total := 9 + int(klen) + int(vlen)
	payload := append(make([]byte, 0, min(total, 4<<10)), meta...)
	for len(payload) < total {
		n := min(total-len(payload), max(len(payload), 4<<10))
		payload = slices.Grow(payload, n)[:len(payload)+n]
		if _, err := io.ReadFull(r.br, payload[len(payload)-n:]); err != nil {
			return walRecord{}, errCorrupt
		}
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return walRecord{}, errCorrupt
	}
	// The record owns its payload: key and value are slices of it.
	rec := walRecord{
		op:    walOp(payload[0]),
		key:   payload[9 : 9+klen : 9+klen],
		value: payload[9+klen:],
	}
	switch rec.op {
	case walPut, walDelete:
	case walBegin, walCommit:
		if klen != 0 || vlen != 0 {
			return walRecord{}, errCorrupt
		}
		if (rec.op == walBegin) == r.inBatch {
			return walRecord{}, errMisplaced
		}
		r.inBatch = !r.inBatch
	default:
		return walRecord{}, errCorrupt
	}
	r.goodOff += int64(4 + len(payload))
	r.records++
	return rec, nil
}
