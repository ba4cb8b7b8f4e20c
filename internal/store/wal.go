package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faults"
)

// Write-ahead log (.wal): a 64-byte container header (Sections = 0,
// PayloadLen = 0 — the log grows by appends, so its length lives in the
// file size) followed by self-delimiting records:
//
//	u32 length   — payload bytes that follow the 8-byte record header
//	u32 crc      — CRC-32C of the payload
//	payload      — u64 version, u32 insCount, u32 delCount,
//	               insCount·arity i64, delCount·arity i64 (native order)
//
// Every append is fsync'd before the in-memory version becomes visible,
// so an acknowledged update survives a crash. The header's Generation
// must match the relation snapshot it extends: after a compaction
// rewrites the snapshot, a crash before the WAL reset leaves a log whose
// content is already folded into the snapshot — the generation mismatch
// discards it cleanly on the next boot.
//
// Recovery distinguishes two failure shapes. A torn tail — fewer bytes
// than the record header announces, from a crash mid-append — is
// expected and truncated away; everything before it was fsync'd and
// replays. A checksum mismatch on a *complete* record is real
// corruption: the log is refused and the operator must intervene, never
// served.
type wal struct {
	f     *os.File
	path  string
	arity int
	gen   uint64
	inj   *faults.Injector
}

const walRecordHeader = 8 // u32 length + u32 crc

// ErrWALCorrupt marks a complete WAL record whose checksum fails —
// corruption, not a torn append. Boot refuses the data directory.
var ErrWALCorrupt = errors.New("store: wal record checksum mismatch")

// createWAL truncates/creates the log at path for a snapshot stamped
// (gen, num) and leaves it open for appends.
func createWAL(path string, arity int, gen, num uint64) (*wal, error) {
	h := header{Magic: MagicWAL, Version: FormatVersion, Arity: uint32(arity), Generation: gen, VersionNum: num}
	if err := atomicWrite(path, encodeHeader(h)); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{f: f, path: path, arity: arity, gen: gen}, nil
}

// walRecord is one replayed delta.
type walRecord struct {
	Version  uint64
	Inserts  [][]int64
	Deletes  [][]int64
	rawBytes int
}

// openWAL reads the log at path, verifies the header against the
// snapshot stamp (gen), replays every intact record, truncates a torn
// tail, and reopens the file for appends. If the header generation does
// not match gen the log predates the current snapshot; it is reset
// (discarded) rather than replayed. Returns the open log, the replayable
// records in append order, and how many tail bytes were truncated.
func openWAL(path string, arity int, gen, num uint64) (*wal, []walRecord, int64, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		w, cerr := createWAL(path, arity, gen, num)
		return w, nil, 0, cerr
	}
	if err != nil {
		return nil, nil, 0, err
	}
	if len(raw) < headerSize {
		// A torn header write can only happen on first creation, before
		// any update was acknowledged; start fresh.
		w, cerr := createWAL(path, arity, gen, num)
		return w, nil, int64(len(raw)), cerr
	}
	h, err := decodeHeader(raw[:headerSize], MagicWAL)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: wal header: %w", err)
	}
	if h.Generation != gen || int(h.Arity) != arity {
		// Stale log from before the last snapshot rewrite (crash between
		// snapshot rename and wal reset): its effects are already in the
		// snapshot. Discard.
		w, cerr := createWAL(path, arity, gen, num)
		return w, nil, 0, cerr
	}

	records, validLen, err := decodeWALRecords(raw[headerSize:], arity)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	torn := int64(len(raw)) - int64(headerSize+validLen)
	if torn > 0 {
		if err := os.Truncate(path, int64(headerSize+validLen)); err != nil {
			return nil, nil, 0, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	return &wal{f: f, path: path, arity: arity, gen: gen}, records, torn, nil
}

// decodeWALRecords parses the record region, returning the intact
// records and the byte length of the intact prefix. A short tail is
// reported via validLen (caller truncates); a bad checksum on a complete
// record returns ErrWALCorrupt.
func decodeWALRecords(b []byte, arity int) (records []walRecord, validLen int, err error) {
	off := 0
	for off+walRecordHeader <= len(b) {
		plen := int(nativeEndian.Uint32(b[off:]))
		want := nativeEndian.Uint32(b[off+4:])
		if off+walRecordHeader+plen > len(b) {
			break // torn tail: announced payload extends past EOF
		}
		payload := b[off+walRecordHeader : off+walRecordHeader+plen]
		if crc(payload) != want {
			return nil, 0, fmt.Errorf("%w (record at offset %d)", ErrWALCorrupt, headerSize+off)
		}
		rec, derr := decodeWALPayload(payload, arity)
		if derr != nil {
			return nil, 0, fmt.Errorf("%w: %v (record at offset %d)", ErrWALCorrupt, derr, headerSize+off)
		}
		rec.rawBytes = walRecordHeader + plen
		records = append(records, rec)
		off += walRecordHeader + plen
	}
	return records, off, nil
}

func decodeWALPayload(p []byte, arity int) (walRecord, error) {
	var r walRecord
	if len(p) < 16 {
		return r, fmt.Errorf("payload %d bytes, want >= 16", len(p))
	}
	r.Version = nativeEndian.Uint64(p[0:8])
	ins := int(nativeEndian.Uint32(p[8:12]))
	del := int(nativeEndian.Uint32(p[12:16]))
	want := 16 + (ins+del)*arity*8
	if len(p) != want {
		return r, fmt.Errorf("payload %d bytes for %d+%d arity-%d tuples, want %d", len(p), ins, del, arity, want)
	}
	read := func(n int, off int) [][]int64 {
		out := make([][]int64, n)
		for i := range out {
			t := make([]int64, arity)
			for j := range t {
				t[j] = int64(nativeEndian.Uint64(p[off:]))
				off += 8
			}
			out[i] = t
		}
		return out
	}
	r.Inserts = read(ins, 16)
	r.Deletes = read(del, 16+ins*arity*8)
	return r, nil
}

// append encodes and appends one delta record and fsyncs. version is the
// relation version number the delta produced. Returns bytes appended.
func (w *wal) append(version uint64, inserts, deletes [][]int64) (int, error) {
	plen := 16 + (len(inserts)+len(deletes))*w.arity*8
	buf := make([]byte, walRecordHeader+plen)
	p := buf[walRecordHeader:]
	nativeEndian.PutUint64(p[0:8], version)
	nativeEndian.PutUint32(p[8:12], uint32(len(inserts)))
	nativeEndian.PutUint32(p[12:16], uint32(len(deletes)))
	off := 16
	for _, ts := range [2][][]int64{inserts, deletes} {
		for _, t := range ts {
			for _, v := range t {
				nativeEndian.PutUint64(p[off:], uint64(v))
				off += 8
			}
		}
	}
	nativeEndian.PutUint32(buf[0:4], uint32(plen))
	nativeEndian.PutUint32(buf[4:8], crc(p))
	// Injection sites: "store/<file>/append" for the record write (a
	// KindShort persists a real torn prefix for recovery to truncate),
	// "store/<file>/appendsync" for the fsync.
	site := "store/" + filepath.Base(w.path)
	if n, ierr := w.inj.WriteLen(site+"/append", len(buf)); ierr != nil {
		if n > 0 {
			w.f.Write(buf[:n])
		}
		return 0, ierr
	}
	if _, err := w.f.Write(buf); err != nil {
		return 0, err
	}
	if err := w.inj.Check(site + "/appendsync"); err != nil {
		return 0, err
	}
	if err := w.f.Sync(); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// reset rewrites the log as empty for a new snapshot stamp (after a
// compaction wrote a fresh snapshot) and reopens it for appends.
func (w *wal) reset(gen, num uint64) error {
	w.f.Close()
	nw, err := createWAL(w.path, w.arity, gen, num)
	if err != nil {
		return err
	}
	nw.inj = w.inj
	*w = *nw
	return nil
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
