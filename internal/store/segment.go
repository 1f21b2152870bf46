package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/pkg/api"
)

// The durable record framing, shared by WAL segments and snapshot chain
// files. One record carries one accepted (dataset, summary) registration:
//
//	offset  size  field
//	0       4     payload length N, uint32 little-endian
//	4       4     CRC32-C (Castagnoli) of the payload, uint32 little-endian
//	8       N     payload:
//	              uvarint  dataset-name length
//	              ...      dataset name (UTF-8)
//	              ...      summary, v2 binary wire format (codecv2.go)
//
// The length lives outside the checksum so a torn tail is detected
// structurally (length runs past the file) as well as by CRC; a record
// whose CRC fails, whose length is zero or absurd, or whose payload does
// not decode ends replay of the FINAL segment at the previous record —
// the longest valid prefix is the recovered state. Appends patch the
// header in after the payload bytes are on disk, so a crash mid-append
// leaves a zero length (an invalid record) rather than a frame that lies
// about its extent. Sealed (non-final) segments were fsynced whole before
// the manifest demoted them from live duty, so they have no legitimate
// torn state: any invalid record there is a hard error.

const (
	// recordHeaderLen is the framing overhead per record.
	recordHeaderLen = 8
	// maxRecord caps a record's declared payload length. It matches the
	// summary server's largest acceptable request body; a length beyond it
	// is corruption, not a summary, and replay must not trust it with an
	// allocation.
	maxRecord = 256 << 20
	// maxDatasetName caps the dataset-name prefix inside a payload. The
	// bound is enforced on BOTH sides of the format: append refuses to
	// write a longer name (failing the registration before anything hits
	// the file), and replay treats a longer name in a checksummed payload
	// as corruption. Writer and validator must stay aligned — a record the
	// writer acknowledges but replay rejects would wedge every later Open.
	// The registry additionally rejects longer names at registration
	// (api.MaxDatasetName, the same value), so the API's accepted-name
	// set is identical with and without durability; the check here is the
	// backstop that keeps the file-format invariant local to this package.
	maxDatasetName = api.MaxDatasetName
)

// File headers. Every file opens with a 5-byte ASCII magic naming the
// format and its version, so a foreign or future file fails loudly
// instead of replaying as garbage.
const (
	segMagic  = "CWAL1"
	snapMagic = "CSNP1"
	magicLen  = 5
)

// Default segment rotation caps (Options.SegmentBytes/SegmentRecords).
const (
	DefaultSegmentBytes   = 64 << 20
	defaultSegmentRecords = 1 << 16
)

// File names of the pre-segmented layout, quarantined at Open.
const (
	legacyWALName      = "wal"
	legacySnapshotName = "snapshot"
)

// quarantineDir is where Open moves files it cannot account for —
// out-of-manifest segments, unparsable segment/snapshot names, legacy
// files that should not exist alongside the segmented layout. Moving
// (not deleting) keeps the bytes for forensics; moving (not replaying)
// keeps unaccounted records from resurrecting state the manifest never
// acknowledged.
const quarantineDir = "quarantine"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segmentName names WAL segment seq. The zero-padding keeps lexical and
// numeric order aligned for the first million segments; parsing, not
// globbing order, is authoritative beyond that.
func segmentName(seq int64) string {
	return fmt.Sprintf("wal-%06d.seg", seq)
}

// parseSegmentSeq extracts the sequence number from a segment file name.
func parseSegmentSeq(name string) (int64, bool) {
	body, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	body, ok = strings.CutSuffix(body, ".seg")
	if !ok || body == "" {
		return 0, false
	}
	for i := 0; i < len(body); i++ {
		if body[i] < '0' || body[i] > '9' {
			return 0, false
		}
	}
	seq, err := strconv.ParseInt(body, 10, 64)
	if err != nil || seq < 1 {
		return 0, false
	}
	return seq, true
}

// segment is one open WAL segment file. The store holds exactly one —
// the live segment, the only one accepting appends; sealed segments are
// closed files named by the manifest.
type segment struct {
	seq     int64
	path    string
	f       *os.File
	w       *recordWriter
	records int64
}

// createSegment creates a fresh segment file: magic written and fsynced
// before anything can reference it, so a manifest that names the segment
// always finds a well-formed (if empty) file.
func createSegment(dir string, seq int64) (*segment, error) {
	path := filepath.Join(dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating WAL segment %d: %w", seq, err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("store: writing WAL segment %d header: %w", seq, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("store: syncing new WAL segment %d: %w", seq, err)
	}
	return &segment{seq: seq, path: path, f: f, w: newRecordWriter(f, magicLen), records: 0}, nil
}

// scanSegments lists the segment sequence numbers present in dir, plus
// any file names that look segment-ish ("wal-*.seg") but do not parse —
// the caller quarantines those.
func scanSegments(dir string) (seqs []int64, malformed []string, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return nil, nil, fmt.Errorf("store: scanning WAL segments: %w", err)
	}
	for _, m := range matches {
		name := filepath.Base(m)
		seq, ok := parseSegmentSeq(name)
		if !ok {
			malformed = append(malformed, name)
			continue
		}
		seqs = append(seqs, seq)
	}
	return seqs, malformed, nil
}

// payloadWriter writes a record payload at a fixed file position,
// accumulating the CRC and length the header needs. It writes with
// WriteAt so the 8 header bytes before it stay reserved until the
// payload is complete.
type payloadWriter struct {
	f   *os.File
	off int64
	n   int64
	crc uint32
}

func (p *payloadWriter) Write(b []byte) (int, error) {
	n, err := p.f.WriteAt(b, p.off)
	p.crc = crc32.Update(p.crc, crcTable, b[:n])
	p.off += int64(n)
	p.n += int64(n)
	return n, err
}

// recordWriter appends framed records to a file. The live segment holds
// one for its lifetime; each snapshot creates one for its temp file.
type recordWriter struct {
	f  *os.File
	bw *bufio.Writer
	// end is the logical end of the file: where the next record starts.
	end int64
}

func newRecordWriter(f *os.File, end int64) *recordWriter {
	return &recordWriter{f: f, bw: bufio.NewWriterSize(nil, 32<<10), end: end}
}

// append frames one (dataset, summary) record at the current end. The
// payload streams through core.EncodeSummaryTo as v2 — a large summary never
// materializes a second buffer — and the header is patched in afterwards,
// which is what makes a mid-append crash look like a torn record instead
// of a valid-looking frame over garbage.
func (w *recordWriter) append(dataset string, s core.Summary) error {
	if len(dataset) > maxDatasetName {
		// Refuse before any byte is written: replay hard-fails on a
		// checksummed record whose name exceeds the bound, so logging one
		// would poison every later Open. The error propagates through
		// Store.Append to Registry.Put, which rolls the registration back
		// and fails the request.
		return fmt.Errorf("store: dataset name is %d bytes (max %d)", len(dataset), maxDatasetName)
	}
	pw := &payloadWriter{f: w.f, off: w.end + recordHeaderLen}
	w.bw.Reset(pw)
	var varint [binary.MaxVarintLen64]byte
	if _, err := w.bw.Write(varint[:binary.PutUvarint(varint[:], uint64(len(dataset)))]); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	if _, err := w.bw.WriteString(dataset); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	if err := core.EncodeSummaryTo(w.bw, s, 2); err != nil {
		return fmt.Errorf("store: encoding summary for dataset %q: %w", dataset, err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	if pw.n > maxRecord {
		// Unframeable: the record would be rejected by replay. The file now
		// carries a zero header before it, so the oversized bytes are torn
		// off on the next open.
		return fmt.Errorf("store: record for dataset %q is %d bytes (max %d)", dataset, pw.n, maxRecord)
	}
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(pw.n))
	binary.LittleEndian.PutUint32(hdr[4:8], pw.crc)
	if _, err := w.f.WriteAt(hdr[:], w.end); err != nil {
		return fmt.Errorf("store: appending record header: %w", err)
	}
	w.end += recordHeaderLen + pw.n
	return nil
}

// checkMagic validates a file's 5-byte header against the expected magic.
func checkMagic(r io.Reader, want, what string) error {
	var got [magicLen]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return fmt.Errorf("store: reading %s header: %w", what, err)
	}
	if string(got[:]) != want {
		return fmt.Errorf("store: %s header %q is not %q (foreign or future file)", what, got[:], want)
	}
	return nil
}
