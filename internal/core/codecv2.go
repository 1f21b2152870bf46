package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// The v2 binary wire format. The v1 JSON format spells every 64-bit key
// and float in decimal — roughly 3–4× the bytes of a fixed-width layout —
// and forces a full-buffer json.Unmarshal on every decode. v2 is the
// compact alternative, and the layout summaries are held in:
//
//	offset  size  field
//	0       1     magic 0xCB
//	1       1     magic 0x53
//	2       1     wire version (2)
//	3       1     kind tag: 1 = pps, 2 = set, 3 = bottomk
//	4       1     flags: must be 0 (a set bit 0, a coordinated summary, is refused)
//	5       8     salt, uint64 little-endian
//	13      var   instance, signed varint (zigzag)
//	...     kind parameters:
//	              pps      tau, IEEE-754 float64 little-endian
//	              set      p, float64 little-endian
//	              bottomk  rank family (1 = pps, 2 = exp), then tau float64
//	                       (+Inf encodes the unbounded threshold directly —
//	                       no JSON-style zero sentinel)
//	...     var   entry count, unsigned varint
//	...     n×    entries, fixed width little-endian:
//	              pps/bottomk  key uint64, value float64   (16 bytes)
//	              set          key uint64                  (8 bytes)
//
// The CANONICAL encoding — the one an encoder writes — has minimal varints
// and entries in strictly ascending key order, so equal summaries encode to
// equal bytes. It is also the in-memory form of a summary (summary.go):
// decoding a canonical message keeps its bytes, and encoding is a copy of
// them. The decoder is lenient about the rest: padded varints and entries
// in any order are accepted and canonicalised at ingress; duplicate keys
// are not. A declared entry count allocates nothing: the entries are the
// bytes that follow it, or the message is truncated.

// v2 magic bytes. 0xCB is not a valid first byte of JSON (or of UTF-8
// text), so the two formats are sniffable from the first two bytes.
const (
	v2Magic0 = 0xCB // "Cohen"
	v2Magic1 = 0x53 // 'S' for summary
)

// v2 kind tags.
const (
	v2KindPPS     = 1
	v2KindSet     = 2
	v2KindBottomK = 3
)

// v2 rank-family tags (bottom-k only).
const (
	v2FamilyPPS = 1
	v2FamilyEXP = 2
)

// hasV2Magic reports whether data opens with the v2 magic bytes.
func hasV2Magic(data []byte) bool {
	return len(data) >= 2 && data[0] == v2Magic0 && data[1] == v2Magic1
}

// v2FlagCoordinated is flag bit 0, which marks a coordinated (shared-seed)
// summary. No estimator here serves one, so the decoder refuses it by name
// rather than as an undefined bit.
const v2FlagCoordinated = 0x01

// v2MaxHeader bounds the header: 5 fixed bytes, salt, instance varint,
// family tag, parameter, count uvarint.
const v2MaxHeader = 5 + 8 + binary.MaxVarintLen64 + 1 + 8 + binary.MaxVarintLen64

// v2EntrySize is the width of one entry of the given kind.
func v2EntrySize(kind byte) int {
	if kind == v2KindSet {
		return 8
	}
	return 16
}

// v2FamilyTag maps a rank family to its bottom-k wire tag.
func v2FamilyTag(fam sampling.RankFamily) (byte, bool) {
	switch fam.(type) {
	case sampling.PPS:
		return v2FamilyPPS, true
	case sampling.EXP:
		return v2FamilyEXP, true
	}
	return 0, false
}

// decodeWholeV2 decodes data as exactly one message; trailing is the error
// text for bytes after it.
func decodeWholeV2(data []byte, stored bool, trailing string) (Summary, error) {
	s, n, err := parseSummaryV2(data, stored)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, errors.New(trailing)
	}
	return s, nil
}

// appendHeaderV2 appends a message's header, up to and including the entry
// count, in the canonical encoding. fam is written for bottom-k only.
func appendHeaderV2(dst []byte, kind byte, seeder xhash.Seeder, instance int, fam byte, param float64, n int) []byte {
	dst = append(dst, v2Magic0, v2Magic1, 2, kind, 0)
	dst = binary.LittleEndian.AppendUint64(dst, seeder.Salt)
	dst = binary.AppendVarint(dst, int64(instance))
	if kind == v2KindBottomK {
		dst = append(dst, fam)
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(param))
	return binary.AppendUvarint(dst, uint64(n))
}

// v2Reader walks a message front to back, mapping any truncation to a
// decode error instead of a bare EOF. It is an io.ByteReader so that the
// varint fields decode through encoding/binary's stream readers.
type v2Reader struct {
	data []byte
	off  int
}

func (r *v2Reader) fail(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("core: decoding v2 summary: %w", err)
}

// ReadByte implements io.ByteReader.
func (r *v2Reader) ReadByte() (byte, error) {
	if r.off == len(r.data) {
		return 0, io.EOF
	}
	r.off++
	return r.data[r.off-1], nil
}

func (r *v2Reader) next(n int) ([]byte, error) {
	if len(r.data)-r.off < n {
		return nil, r.fail(io.ErrUnexpectedEOF)
	}
	r.off += n
	return r.data[r.off-n : r.off], nil
}

func (r *v2Reader) byte() (byte, error) {
	b, err := r.ReadByte()
	if err != nil {
		return 0, r.fail(err)
	}
	return b, nil
}

func (r *v2Reader) uint64() (uint64, error) {
	b, err := r.next(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *v2Reader) float64() (float64, error) {
	bits, err := r.uint64()
	return math.Float64frombits(bits), err
}

func (r *v2Reader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, r.fail(err)
	}
	return v, nil
}

func (r *v2Reader) varint() (int64, error) {
	v, err := binary.ReadVarint(r)
	if err != nil {
		return 0, r.fail(err)
	}
	return v, nil
}

// parseSummaryV2 is the v2 decoder. It parses the message at the front of
// data and reports its length; bytes after it are the caller's concern.
// Checks run in wire order, so the first defect in the bytes is the one
// reported. A canonical message becomes the summary as it is — the result
// is backed by data, which the caller must not modify afterwards; anything
// else valid is re-encoded canonically. stored skips the ingress-only
// entry value check (see DecodeStoredSummary).
func parseSummaryV2(data []byte, stored bool) (Summary, int, error) {
	r := &v2Reader{data: data}
	fixed, err := r.next(5)
	if err != nil {
		return nil, 0, err
	}
	if fixed[0] != v2Magic0 || fixed[1] != v2Magic1 {
		return nil, 0, fmt.Errorf("core: decoding v2 summary: bad magic %#02x %#02x", fixed[0], fixed[1])
	}
	if fixed[2] != 2 {
		// The magic matched but the version is from the future: surface the
		// typed error so callers can negotiate down.
		return nil, 0, fmt.Errorf("core: binary summary version %d (supported: %v): %w",
			fixed[2], SupportedWireVersions(), ErrUnknownVersion)
	}
	kind, flags := fixed[3], fixed[4]
	if flags&^v2FlagCoordinated != 0 {
		return nil, 0, fmt.Errorf("core: decoding v2 summary: undefined flag bits %#02x", flags)
	}
	if flags != 0 {
		return nil, 0, errCoordinated("v2")
	}
	salt, err := r.uint64()
	if err != nil {
		return nil, 0, err
	}
	instance, err := r.varint()
	if err != nil {
		return nil, 0, err
	}
	if int64(int(instance)) != instance {
		return nil, 0, fmt.Errorf("core: decoding v2 summary: instance %d out of range", instance)
	}
	seeder := xhash.Seeder{Salt: salt}

	var (
		famTag byte
		fam    sampling.RankFamily
	)
	switch kind {
	case v2KindPPS, v2KindSet:
	case v2KindBottomK:
		if famTag, err = r.byte(); err != nil {
			return nil, 0, err
		}
		switch famTag {
		case v2FamilyPPS:
			fam = sampling.PPS{}
		case v2FamilyEXP:
			fam = sampling.EXP{}
		default:
			return nil, 0, fmt.Errorf("core: unknown rank family tag %d", famTag)
		}
	default:
		return nil, 0, fmt.Errorf("core: unknown v2 summary kind tag %d", kind)
	}
	param, err := r.float64()
	if err != nil {
		return nil, 0, err
	}
	switch {
	case kind == v2KindPPS && (!(param > 0) || math.IsInf(param, 1)):
		return nil, 0, fmt.Errorf("core: invalid tau %v", param)
	case kind == v2KindSet && !(param > 0 && param <= 1):
		return nil, 0, fmt.Errorf("core: invalid sampling probability %v", param)
	case kind == v2KindBottomK && !(param > 0): // +Inf (the unbounded threshold) passes; 0, negatives, NaN fail
		return nil, 0, fmt.Errorf("core: invalid rank threshold %v", param)
	}

	// The declared count allocates nothing: the entries are the bytes that
	// follow it. Those present are checked before a shortfall is reported,
	// as a decoder reading them one by one would.
	n, err := r.uvarint()
	if err != nil {
		return nil, 0, err
	}
	head, size := r.off, v2EntrySize(kind)
	present := min(n, uint64(len(data)-head)/uint64(size))
	end := head + int(present)*size
	entries := data[head:end]
	ascending, err := checkEntries(entries, size, stored)
	if err != nil {
		return nil, 0, err
	}
	if present < n {
		return nil, 0, r.fail(io.ErrUnexpectedEOF)
	}

	var canonical [v2MaxHeader]byte
	sd := summaryData{data: data[:end:end], entries: entries, n: int(n), instance: int(instance), seeder: seeder}
	if !ascending || !bytes.Equal(appendHeaderV2(canonical[:0], kind, seeder, sd.instance, famTag, param, sd.n), data[:head]) {
		es := make([]sampling.Pair, sd.n)
		for i := range es {
			es[i].Key = dataset.Key(binary.LittleEndian.Uint64(entries[i*size:]))
			if size == 16 {
				es[i].Value = math.Float64frombits(binary.LittleEndian.Uint64(entries[i*size+8:]))
			}
		}
		slices.SortFunc(es, byKey)
		dups := 0
		for i := 1; i < len(es); i++ {
			if es[i].Key == es[i-1].Key {
				dups++
			}
		}
		if dups > 0 {
			return nil, 0, fmt.Errorf("core: decoding v2 summary: %d duplicate keys", dups)
		}
		sd = newSummaryData(kind, seeder, sd.instance, famTag, param, es)
	}
	switch kind {
	case v2KindPPS:
		return &PPSSummary{summaryData: sd, tau: param}, end, nil
	case v2KindSet:
		return &SetSummary{summaryData: sd, p: param}, end, nil
	default: // v2KindBottomK: the kind switch above refused every other tag
		return &bottomKSummary{summaryData: sd, fam: fam, tau: param}, end, nil
	}
}

// checkEntries walks an entry region once. It refuses a weighted entry no
// sampler produces and no estimator is defined on — a negative, infinite or
// NaN value (a stored +Inf would also make every sum over the summary
// unencodable as JSON) — and reports whether the keys are strictly
// ascending. Every decoder that accepts a summary from outside applies the
// value check, in both wire versions; only the store's replay of its own
// records (stored) does not, so a log never becomes unreadable over a value
// some earlier ingress let through.
func checkEntries(entries []byte, size int, stored bool) (ascending bool, err error) {
	ascending = true
	var prev uint64
	for off := 0; off < len(entries); off += size {
		key := binary.LittleEndian.Uint64(entries[off:])
		if size == 16 && !stored {
			if v := math.Float64frombits(binary.LittleEndian.Uint64(entries[off+8:])); !(v >= 0 && !math.IsInf(v, 1)) {
				return false, fmt.Errorf("core: invalid entry value %v for key %d", v, key)
			}
		}
		if off > 0 && key <= prev {
			ascending = false
		}
		prev = key
	}
	return ascending, nil
}
