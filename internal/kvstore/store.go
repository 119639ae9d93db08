package kvstore

import (
	"bufio"
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

// Store is a durable ordered key-value store: an in-memory B-tree fronted by
// a CRC-framed write-ahead log. It is safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	tree   *btree
	wal    *walWriter // nil for a purely in-memory store
	walErr error      // set when the WAL was lost (failed compaction); mutations refuse
	path   string
	stats  WriteStats
}

// WriteStats counts the mutations a store has accepted — Puts, Deletes and
// the WAL frame bytes they encode (counted even for in-memory stores, where
// no log is written). Checkpoint code uses the deltas between readings as
// the observable cost of a save; maintenance rewrites (Compact,
// LoadSnapshot) are not counted.
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
	s := &Store{tree: newBTree(32), path: path}
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
	s.wal = newWALWriter(f)
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
	apply := func(rec walRecord) {
		switch rec.op {
		case walPut:
			s.tree.Put(rec.key, rec.value)
		case walDelete:
			s.tree.Delete(rec.key)
		}
	}
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
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	r := newWALReader(f)
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
	v, ok := s.tree.Get(key)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Put stores key=value durably (WAL first, then the tree).
func (s *Store) Put(key, value []byte) error {
	if len(key) == 0 {
		return errors.New("kvstore: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.walErr; err != nil {
		// The durable log is gone (failed compaction); refusing beats
		// silently succeeding in memory only.
		return fmt.Errorf("kvstore: wal unavailable: %w", err)
	}
	if s.wal != nil {
		if err := s.wal.append(walRecord{op: walPut, key: key, value: value}); err != nil {
			return err
		}
	}
	s.tree.Put(key, append([]byte(nil), value...))
	s.stats.Puts++
	s.stats.Bytes += walFrameSize(len(key), len(value))
	return nil
}

// Delete removes key. Deleting an absent key is not an error.
func (s *Store) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.walErr; err != nil {
		return fmt.Errorf("kvstore: wal unavailable: %w", err)
	}
	if s.wal != nil {
		if err := s.wal.append(walRecord{op: walDelete, key: key}); err != nil {
			return err
		}
	}
	s.tree.Delete(key)
	s.stats.Deletes++
	s.stats.Bytes += walFrameSize(len(key), 0)
	return nil
}

// Batch stages puts and deletes that commit atomically. The staged records
// are framed between walBegin/walCommit markers and applied to the tree only
// after the commit marker is written, so recovery after a crash mid-batch
// discards the half-written batch wholesale (a checkpoint is either entirely
// present or entirely absent — never torn). Keys and values are copied when
// staged; callers may reuse their buffers.
type Batch struct {
	recs []walRecord
	st   WriteStats
}

// Put stages key=value.
func (b *Batch) Put(key, value []byte) error {
	if len(key) == 0 {
		return errors.New("kvstore: empty key")
	}
	b.recs = append(b.recs, walRecord{
		op:    walPut,
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
	})
	b.st.Puts++
	b.st.Bytes += walFrameSize(len(key), len(value))
	return nil
}

// Delete stages removal of key. Deleting an absent key is not an error.
func (b *Batch) Delete(key []byte) error {
	if len(key) == 0 {
		return errors.New("kvstore: empty key")
	}
	b.recs = append(b.recs, walRecord{op: walDelete, key: append([]byte(nil), key...)})
	b.st.Deletes++
	b.st.Bytes += walFrameSize(len(key), 0)
	return nil
}

// Batch runs fn to stage a set of mutations, then commits them atomically:
// one walBegin frame, the staged records, one walCommit frame, a single
// flush, and only then the tree application. fn runs WITHOUT the store lock
// (so it may read the model under the model's own locks); an error from fn
// abandons the batch untouched. A write error mid-commit poisons the WAL
// (walErr) — a later append could otherwise land inside the unterminated
// batch and be silently discarded by recovery.
func (s *Store) Batch(fn func(*Batch) error) error {
	var b Batch
	if err := fn(&b); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.walErr; err != nil {
		return fmt.Errorf("kvstore: wal unavailable: %w", err)
	}
	if s.wal != nil {
		werr := s.wal.stage(walRecord{op: walBegin})
		for i := 0; werr == nil && i < len(b.recs); i++ {
			werr = s.wal.stage(b.recs[i])
		}
		if werr == nil {
			werr = s.wal.stage(walRecord{op: walCommit})
		}
		if werr == nil {
			werr = s.wal.flush()
		}
		if werr != nil {
			s.walErr = werr
			return fmt.Errorf("kvstore: batch commit: %w", werr)
		}
	}
	for _, rec := range b.recs {
		switch rec.op {
		case walPut:
			s.tree.Put(rec.key, rec.value)
		case walDelete:
			s.tree.Delete(rec.key)
		}
	}
	s.stats.Puts += b.st.Puts
	s.stats.Deletes += b.st.Deletes
	s.stats.Bytes += b.st.Bytes
	return nil
}

// Len reports the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.Len()
}

// Scan visits keys in [from, to) in order; nil bounds are open. fn must not
// mutate the store.
func (s *Store) Scan(from, to []byte, fn func(key, value []byte) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.tree.Ascend(from, to, fn)
}

// Snapshot writes a point-in-time copy of the store to w (length-prefixed
// key/value pairs, CRC-framed like the WAL).
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sw := newWALWriter(nopCloser{w})
	var err error
	s.tree.Ascend(nil, nil, func(k, v []byte) bool {
		err = sw.append(walRecord{op: walPut, key: k, value: v})
		return err == nil
	})
	if err != nil {
		return err
	}
	return sw.flush()
}

// LoadSnapshot replaces the store contents with a snapshot produced by
// Snapshot. The WAL (if any) is appended with the loaded state so recovery
// stays consistent.
func (s *Store) LoadSnapshot(r io.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tree := newBTree(32)
	wr := newWALReader(r)
	for {
		rec, err := wr.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if rec.op != walPut {
			return fmt.Errorf("kvstore: snapshot contains op %d: %w", rec.op, ErrCorruptWAL)
		}
		tree.Put(rec.key, rec.value)
		if s.wal != nil {
			if err := s.wal.append(rec); err != nil {
				return err
			}
		}
	}
	s.tree = tree
	return nil
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
	if s.wal == nil {
		return errors.New("kvstore: compacting a closed store")
	}
	tmp := s.path + ".compact"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("kvstore: compacting: %w", err)
	}
	w := newWALWriter(f)
	var werr error
	s.tree.Ascend(nil, nil, func(k, v []byte) bool {
		werr = w.append(walRecord{op: walPut, key: k, value: v})
		return werr == nil
	})
	if werr == nil {
		werr = w.flush()
	}
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
	if err := s.wal.close(); err != nil {
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
	s.wal = newWALWriter(f)
	return cause
}

// Close flushes and closes the WAL.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.close()
	s.wal = nil
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

// walFrameSize is the on-disk size of one WAL frame: u32 crc + u8 op +
// u32 klen + u32 vlen + key + value.
func walFrameSize(klen, vlen int) int64 { return int64(4 + 9 + klen + vlen) }

type walRecord struct {
	op    walOp
	key   []byte
	value []byte
}

// errCorrupt is the reader-level corruption marker; it wraps ErrCorruptWAL
// so every path that surfaces it (Open, Repair, LoadSnapshot) matches
// errors.Is(err, ErrCorruptWAL).
var errCorrupt = fmt.Errorf("%w record", ErrCorruptWAL)

// errMisplaced marks an intact batch marker where none may stand: a begin
// inside a batch, or a commit outside one.
var errMisplaced = fmt.Errorf("%w: batch marker out of place", ErrCorruptWAL)

// Frame: u32 crc (of everything after), u8 op, u32 klen, u32 vlen, key, value.
type walWriter struct {
	w  io.WriteCloser
	bw *bufio.Writer
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

func newWALWriter(w io.WriteCloser) *walWriter {
	return &walWriter{w: w, bw: bufio.NewWriter(w)}
}

// stage writes one frame into the buffered writer without flushing — the
// building block batch commits use to pay one flush for many records.
func (w *walWriter) stage(rec walRecord) error {
	payload := make([]byte, 1+4+4+len(rec.key)+len(rec.value))
	payload[0] = byte(rec.op)
	binary.LittleEndian.PutUint32(payload[1:5], uint32(len(rec.key)))
	binary.LittleEndian.PutUint32(payload[5:9], uint32(len(rec.value)))
	copy(payload[9:], rec.key)
	copy(payload[9+len(rec.key):], rec.value)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.bw.Write(payload)
	return err
}

func (w *walWriter) append(rec walRecord) error {
	if err := w.stage(rec); err != nil {
		return err
	}
	return w.bw.Flush()
}

func (w *walWriter) flush() error { return w.bw.Flush() }

func (w *walWriter) close() error {
	if err := w.bw.Flush(); err != nil {
		w.w.Close()
		return err
	}
	return w.w.Close()
}

type walReader struct {
	br      *bufio.Reader
	goodOff int64 // offset just past the last fully verified record
	records int   // records verified so far
	inBatch bool  // past a walBegin, before its walCommit
}

func newWALReader(r io.Reader) *walReader { return &walReader{br: bufio.NewReader(r)} }

func (r *walReader) next() (walRecord, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return walRecord{}, errCorrupt
		}
		return walRecord{}, err
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[:])
	var meta [9]byte
	if _, err := io.ReadFull(r.br, meta[:]); err != nil {
		return walRecord{}, errCorrupt
	}
	klen := binary.LittleEndian.Uint32(meta[1:5])
	vlen := binary.LittleEndian.Uint32(meta[5:9])
	if klen > 1<<24 || vlen > 1<<28 {
		return walRecord{}, errCorrupt
	}
	// The payload grows as its bytes arrive, doubling: a header claiming
	// 272 MiB — from a torn disk page, or a catch-up snapshot straight off the
	// network — costs nothing until those bytes are actually there. A record
	// under 4 KiB (every one a checkpoint writes) is still one exact allocation.
	total := 9 + int(klen) + int(vlen)
	payload := append(make([]byte, 0, min(total, 4<<10)), meta[:]...)
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
	rec := walRecord{
		op:    walOp(payload[0]),
		key:   append([]byte(nil), payload[9:9+klen]...),
		value: append([]byte(nil), payload[9+klen:]...),
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
