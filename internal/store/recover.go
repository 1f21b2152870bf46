package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs/trace"
)

// Recovery is two phases. Phase 1 (verifyDir) reads every byte of every
// snapshot file and WAL segment once, checks every frame and decodes every
// payload, and keeps only where the last record of each (dataset,
// instance) sits. Phase 2 (materialise) reads those records back and
// applies them. A record a later one supersedes costs a read, a CRC and a
// decode, and no memory that outlives its frame.

// recoverWindow is the size of the buffer a file is verified through. It
// is large enough that refilling it is a rare syscall and the bytes a
// refill carries over (less than one record) are noise, and small enough
// to sit in cache between the kernel's copy and the CRC that reads it.
const recoverWindow = 512 << 10

// window reads a file front to back through one reusable buffer and hands
// its bytes out in place. It grows only to hold a record larger than
// itself, and never shrinks.
type window struct {
	f    io.ReaderAt
	buf  []byte
	r, w int   // buf[r:w] is read from the file and not yet handed out
	off  int64 // file offset the next read starts at
	end  int64 // file offset reading stops at
}

// reset points the window at f's bytes [off, end).
func (w *window) reset(f io.ReaderAt, off, end int64) {
	w.f, w.r, w.w, w.off, w.end = f, 0, 0, off, end
}

// next returns the file's next n bytes. They are valid until the
// following call.
func (w *window) next(n int) ([]byte, error) {
	if w.w-w.r < n {
		if err := w.fill(n); err != nil {
			return nil, err
		}
	}
	b := w.buf[w.r : w.r+n]
	w.r += n
	return b, nil
}

// fill moves the unread tail to the front of the buffer and reads on from
// the file until at least n bytes are buffered.
func (w *window) fill(n int) error {
	if n > len(w.buf) {
		grown := make([]byte, n)
		w.w = copy(grown, w.buf[w.r:w.w])
		w.buf = grown
	} else {
		w.w = copy(w.buf, w.buf[w.r:w.w])
	}
	w.r = 0
	want := min(int64(len(w.buf)-w.w), w.end-w.off)
	m, err := w.f.ReadAt(w.buf[w.w:w.w+int(want)], w.off)
	w.w += m
	w.off += int64(m)
	if w.w >= n {
		return nil
	}
	if err == nil || err == io.EOF {
		// The caller checked n against the file's size, so the file shrank
		// while it was being read.
		err = io.ErrUnexpectedEOF
	}
	return err
}

// frame is one verified record as scanFrames hands it to its visitor.
// dataset and sum are backed by the window: neither may be kept.
type frame struct {
	dataset []byte
	sum     core.Summary
	ref     frameRef
}

// instanceKey identifies one summary slot.
type instanceKey struct {
	dataset  string
	instance int
}

// frameRef locates a verified record: which file of the recovery it is in,
// its 1-based position among that file's records, and its payload's
// offset, length and checksum.
type frameRef struct {
	file   int
	record int64
	off    int64
	length int
	crc    uint32
}

// splitPayload cuts a checksummed payload into its dataset name and the
// summary's wire bytes.
func splitPayload(payload []byte) (dataset, summary []byte, ok bool) {
	nameLen, n := binary.Uvarint(payload)
	if n <= 0 || nameLen > maxDatasetName || uint64(n)+nameLen > uint64(len(payload)) {
		return nil, nil, false
	}
	return payload[n : n+int(nameLen)], payload[n+int(nameLen):], true
}

// scanFrames walks the framed records win is positioned at — just past a
// file's header, up to the file's end — in place, and calls visit for each
// valid one. It is the only reader of the record framing: recovery and
// the tests see a file through it.
//
// In strict mode (snapshot files, written atomically, and sealed
// segments, fsynced before the manifest demoted them) any invalid record
// is an error. In lax mode (the FINAL segment, whose tail a crash may
// tear) scanning stops at the first STRUCTURALLY invalid record — short
// frame, zero/absurd length, CRC mismatch — with a nil error: records
// reports how many valid records were visited and validBytes the length
// of the valid prefix, which the caller truncates to.
//
// A payload that passes its CRC but fails to parse is a hard error in
// BOTH modes: the patch-header-last append discipline guarantees a torn
// append never checksums, so an unintelligible checksummed payload can
// only mean version skew (a binary downgrade reading a future format) or
// a writer bug — truncating it, and every acknowledged record after it,
// would silently destroy data the log still faithfully holds.
func scanFrames(win *window, strict bool, visit func(fr frame)) (records, validBytes int64, err error) {
	invalid := func(format string, args ...any) (int64, int64, error) {
		if strict {
			args = append([]any{records + 1}, args...)
			return records, validBytes, fmt.Errorf("store: record %d: "+format, args...)
		}
		return records, validBytes, nil
	}
	base := win.off
	remaining := win.end - win.off
	for remaining > 0 {
		if remaining < recordHeaderLen {
			return invalid("torn header (%d trailing bytes)", remaining)
		}
		hdr, err := win.next(recordHeaderLen)
		if err != nil {
			return records, validBytes, fmt.Errorf("store: reading record header: %w", err)
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxRecord {
			return invalid("invalid payload length %d", length)
		}
		if length > remaining-recordHeaderLen {
			return invalid("payload runs past the file (%d declared, %d remain)", length, remaining-recordHeaderLen)
		}
		payload, err := win.next(int(length))
		if err != nil {
			return records, validBytes, fmt.Errorf("store: reading record payload: %w", err)
		}
		if got := crc32.Checksum(payload, crcTable); got != crc {
			return invalid("checksum mismatch (stored %#08x, computed %#08x)", crc, got)
		}
		dataset, wire, ok := splitPayload(payload)
		if !ok {
			return records, validBytes, fmt.Errorf(
				"store: record %d: checksummed payload has an invalid dataset-name length (version skew or writer bug; refusing to truncate)", records+1)
		}
		sum, derr := core.DecodeStoredSummary(wire)
		if derr != nil {
			return records, validBytes, fmt.Errorf(
				"store: record %d: checksummed payload failed to decode (version skew or writer bug; refusing to truncate): %w", records+1, derr)
		}
		records++
		visit(frame{dataset: dataset, sum: sum, ref: frameRef{
			record: records,
			off:    base + validBytes + recordHeaderLen,
			length: int(length),
			crc:    crc,
		}})
		validBytes += recordHeaderLen + length
		remaining -= recordHeaderLen + length
	}
	return records, validBytes, nil
}

// fileKind says which of the three replayed kinds of file one is; it picks
// the file's name, header, frame rule and the wording of its errors.
type fileKind int

const (
	snapFile      fileKind = iota // snapshot file: strict
	sealedSegment                 // WAL segment behind the live one: strict
	liveSegment                   // the manifest's last segment: lax
)

func (k fileKind) String() string {
	switch k {
	case snapFile:
		return "snapshot"
	case sealedSegment:
		return "sealed WAL segment"
	default:
		return "WAL segment"
	}
}

// fileSpec names one file to verify.
type fileSpec struct {
	kind fileKind
	seq  int64
}

func (sp fileSpec) name() string {
	if sp.kind == snapFile {
		return snapName(sp.seq)
	}
	return segmentName(sp.seq)
}

// fileScan is what verifying one file found.
type fileScan struct {
	fileSpec
	path    string
	size    int64
	modTime time.Time
	records int64 // valid records
	valid   int64 // bytes they span, after the file header
	// slots holds the last record of each (dataset, instance) in this
	// file; datasets interns the name of every dataset with a record here,
	// superseded or not, so that a file of repeated writes allocates one
	// name per dataset and not one per record.
	slots    map[instanceKey]frameRef
	datasets map[string]string
}

// verifyFile checks one file — the file'th of its recovery — front to back
// through win: header, then every frame under the file kind's rule. It
// only reads. A live segment shorter than its header (a crash before even
// that landed) verifies as empty; the caller starts it over.
func verifyFile(dir string, spec fileSpec, file int, win *window) (*fileScan, error) {
	scan := &fileScan{
		fileSpec: spec,
		path:     filepath.Join(dir, spec.name()),
		slots:    make(map[instanceKey]frameRef),
		datasets: make(map[string]string),
	}
	f, err := os.Open(scan.path)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s %d: %w", spec.kind, spec.seq, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %s %d stat: %w", spec.kind, spec.seq, err)
	}
	scan.size, scan.modTime = info.Size(), info.ModTime()
	magic, what := segMagic, fmt.Sprintf("%s %d", liveSegment, spec.seq)
	switch spec.kind {
	case snapFile:
		magic, what = snapMagic, fmt.Sprintf("%s %d", snapFile, spec.seq)
	case sealedSegment:
		if scan.size < magicLen {
			return nil, fmt.Errorf("store: sealed WAL segment %d is torn at %d bytes (acknowledged data lost; refusing to recover silently)", spec.seq, scan.size)
		}
	case liveSegment:
		if scan.size < magicLen {
			return scan, nil
		}
	}
	if err := checkMagic(f, magic, what); err != nil {
		if spec.kind == snapFile && scan.size == 0 {
			return nil, fmt.Errorf("store: snapshot %d is empty (was it created by hand?): %w", spec.seq, err)
		}
		return nil, err
	}
	win.reset(f, magicLen, scan.size)
	scan.records, scan.valid, err = scanFrames(win, spec.kind != liveSegment, func(fr frame) {
		name, ok := scan.datasets[string(fr.dataset)]
		if !ok {
			name = string(fr.dataset)
			scan.datasets[name] = name
		}
		fr.ref.file = file
		scan.slots[instanceKey{name, fr.sum.InstanceID()}] = fr.ref
	})
	if err != nil {
		return nil, fmt.Errorf("store: %s %s: %w", spec.kind, scan.path, err)
	}
	return scan, nil
}

// verifyFiles verifies the named files of dir, at most workers at a time,
// each worker through a window of its own, and returns their scans in the
// order given. When several files are bad the error is that of the first
// in that order, whichever worker met one first. Each file is a
// store.verify span under parent.
func verifyFiles(dir string, specs []fileSpec, workers int, parent *trace.Span) ([]*fileScan, error) {
	// Largest first: a file is one worker's from end to end, so the wall
	// time is the busiest worker's bytes, and handing the big live segment
	// out last would leave the other workers idle for most of it.
	sizes := make([]int64, len(specs))
	order := make([]int, len(specs))
	var largest int64
	for i, spec := range specs {
		if info, err := os.Stat(filepath.Join(dir, spec.name())); err == nil {
			sizes[i] = info.Size()
		}
		order[i] = i
		largest = max(largest, sizes[i])
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })

	scans := make([]*fileScan, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(specs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win := &window{buf: make([]byte, min(recoverWindow, largest))}
			for {
				n := int(next.Add(1)) - 1
				if n >= len(order) {
					return
				}
				i := order[n]
				sp := parent.StartChild("store.verify")
				sp.SetAttr("file", specs[i].name())
				scans[i], errs[i] = verifyFile(dir, specs[i], i, win)
				if errs[i] != nil {
					sp.SetAttr("error", errs[i].Error())
				} else {
					sp.SetInt("bytes", scans[i].size)
					sp.SetInt("records", scans[i].records)
				}
				sp.Finish()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return scans, nil
}

// lastWins merges the files' slots into index in the order given, a later
// file's record replacing an earlier file's.
func lastWins(index map[instanceKey]frameRef, files []*fileScan) {
	for _, scan := range files {
		for key, ref := range scan.slots {
			index[key] = ref
		}
	}
}

// loaded is one record read back for phase 2.
type loaded struct {
	dataset string
	sum     core.Summary
}

// readBack reads the records refs names — ascending in (file, offset) —
// back from files, checks each against the checksum phase 1 verified, and
// decodes it from a buffer of its own into out (a decoded summary keeps
// the bytes it was decoded from).
func readBack(files []*fileScan, refs []frameRef, out []loaded) error {
	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	open := -1
	for i, ref := range refs {
		scan := files[ref.file]
		if ref.file != open {
			if f != nil {
				f.Close()
			}
			var err error
			if f, err = os.Open(scan.path); err != nil {
				return fmt.Errorf("store: opening %s %d: %w", scan.kind, scan.seq, err)
			}
			open = ref.file
		}
		payload := make([]byte, ref.length)
		if _, err := f.ReadAt(payload, ref.off); err != nil {
			return fmt.Errorf("store: %s %s: reading record %d back: %w", scan.kind, scan.path, ref.record, err)
		}
		dataset, wire, ok := splitPayload(payload)
		if !ok || crc32.Checksum(payload, crcTable) != ref.crc {
			return fmt.Errorf("store: %s %s: record %d changed after it was verified", scan.kind, scan.path, ref.record)
		}
		sum, err := core.DecodeStoredSummary(wire)
		if err != nil {
			return fmt.Errorf("store: %s %s: record %d changed after it was verified: %w", scan.kind, scan.path, ref.record, err)
		}
		out[i] = loaded{string(dataset), sum}
	}
	return nil
}

// materialise is phase 2: it reads the indexed records back, workers
// stretches of the log at a time, and applies them in log order — file by
// file, front to back.
func materialise(files []*fileScan, index map[instanceKey]frameRef, workers int, apply func(dataset string, s core.Summary) error) error {
	refs := make([]frameRef, 0, len(index))
	for _, ref := range index {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].file != refs[j].file {
			return refs[i].file < refs[j].file
		}
		return refs[i].off < refs[j].off
	})
	out := make([]loaded, len(refs))
	workers = min(workers, len(refs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(refs)/workers, (w+1)*len(refs)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = readBack(files, refs[lo:hi], out[lo:hi])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, rec := range out {
		if err := apply(rec.dataset, rec.sum); err != nil {
			scan := files[refs[i].file]
			return fmt.Errorf("store: %s %s: store: replaying record %d (dataset %q): %w", scan.kind, scan.path, refs[i].record, rec.dataset, err)
		}
	}
	return nil
}

// recovered is what phase 1 learned about a data directory, having changed
// nothing in it: which files make up its state, where the live record of
// every (dataset, instance) sits in them, and what its caller has to tidy
// before appends resume.
type recovered struct {
	// files are the verified files in log order: the snapshot files, the
	// sealed segments, the live segment. first and last are the manifest's
	// segment range; last is 0 in a directory with no segment yet.
	files       []*fileScan
	snaps       []int64
	first, last int64
	// manifest is false when the range was inferred: a lone segment 1, the
	// residue of a first start that crashed before writing the manifest.
	manifest bool
	// stray are files the manifest cannot account for (unparsable names,
	// segments past its range), to quarantine; stale are segments below
	// its range, whose deletion a crash interrupted, to remove.
	stray, stale []string

	index       map[instanceKey]frameRef
	snapEntries int64 // distinct (dataset, instance) slots in the snapshot files
	records     int64 // valid records verified, superseded ones included
	bytes       int64 // file bytes they and the file headers span
}

// verifyDir is phase 1 over a whole data directory: it works out from the
// manifest and the file names which files hold the directory's state,
// verifies all of them (workers at a time; see verifyFiles), and indexes
// the last record of every (dataset, instance). It reads and never writes,
// renames or truncates — what has to change before the directory takes
// appends again is reported for the caller to do.
//
// Segments below the manifest range are a deletion a crash interrupted;
// segments above it are the residue of a crash between segment creation
// and manifest update and can hold no acknowledged record (appends only
// start after the manifest names the segment) — those are never read.
func verifyDir(dir string, workers int, parent *trace.Span) (*recovered, error) {
	rec := &recovered{index: make(map[instanceKey]frameRef)}
	var err error
	if rec.snaps, rec.stray, err = scanSnapshots(dir); err != nil {
		return nil, err
	}
	first, last, ok, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	seqs, malformed, err := scanSegments(dir)
	if err != nil {
		return nil, err
	}
	rec.stray = append(rec.stray, malformed...)
	if !ok && len(seqs) > 0 {
		if len(seqs) != 1 || seqs[0] != 1 {
			return nil, fmt.Errorf("store: %d WAL segments present without a manifest; refusing to guess which are live", len(seqs))
		}
		first, last = 1, 1
	}
	rec.first, rec.last, rec.manifest = first, last, ok
	present := make(map[int64]bool, len(seqs))
	for _, seq := range seqs {
		present[seq] = true
		switch {
		case seq < first:
			rec.stale = append(rec.stale, segmentName(seq))
		case seq > last:
			rec.stray = append(rec.stray, segmentName(seq))
		}
	}
	var specs []fileSpec
	for _, seq := range rec.snaps {
		specs = append(specs, fileSpec{snapFile, seq})
	}
	if last > 0 {
		for seq := first; seq <= last; seq++ {
			if !present[seq] {
				return nil, fmt.Errorf("store: manifest names WAL segment %d but the file is missing (acknowledged data is unrecoverable without it)", seq)
			}
			kind := sealedSegment
			if seq == last {
				kind = liveSegment
			}
			specs = append(specs, fileSpec{kind, seq})
		}
	}
	if rec.files, err = verifyFiles(dir, specs, workers, parent); err != nil {
		return nil, err
	}
	lastWins(rec.index, rec.files[:len(rec.snaps)])
	rec.snapEntries = int64(len(rec.index))
	lastWins(rec.index, rec.files[len(rec.snaps):])
	for _, scan := range rec.files {
		rec.records += scan.records
		if scan.size >= magicLen {
			rec.bytes += magicLen + scan.valid
		}
	}
	return rec, nil
}
