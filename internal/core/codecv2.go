package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// The v2 binary wire format. The v1 JSON format spells every 64-bit key
// and float in decimal — roughly 3–4× the bytes of a fixed-width layout —
// and forces a full-buffer json.Unmarshal on every decode. v2 is the
// compact, streamable alternative:
//
//	offset  size  field
//	0       1     magic 0xCB
//	1       1     magic 0x53
//	2       1     wire version (2)
//	3       1     kind tag: 1 = pps, 2 = set, 3 = bottomk, 4 = varopt
//	4       1     flags: bit 0 = shared (coordinated) seeds; others must be 0
//	5       8     salt, uint64 little-endian
//	13      var   instance, signed varint (zigzag)
//	...     kind parameters:
//	              pps      tau, IEEE-754 float64 little-endian
//	              set      p, float64 little-endian
//	              bottomk  rank family (1 = pps, 2 = exp), then tau float64
//	                       (+Inf encodes the unbounded threshold directly —
//	                       no JSON-style zero sentinel)
//	              varopt   tau, float64 little-endian (0 = never overflowed)
//	...     var   entry count, unsigned varint
//	...     n×    entries, fixed width little-endian:
//	              pps/bottomk  key uint64, value float64   (16 bytes)
//	              varopt       key uint64, original weight (16 bytes)
//	              set          key uint64                  (8 bytes)
//
// Entries are written in ascending key order, so equal summaries encode to
// equal bytes. Decoding reads entry by entry through a small bufio window:
// memory beyond the resulting summary is O(buffer), never O(payload), and
// a hostile entry count cannot pre-allocate more than v2MaxPrealloc map
// slots before real entries have to back it.

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
	v2KindVarOpt  = 4
)

// v2 rank-family tags (bottom-k only).
const (
	v2FamilyPPS = 1
	v2FamilyEXP = 2
)

// v2FlagShared marks coordinated (shared-seed) randomization.
const v2FlagShared = 0x01

// v2MaxPrealloc caps how many map slots a decoder reserves up front from
// the declared entry count. A payload claiming 2^60 entries allocates at
// most this many empty slots; everything beyond grows only as entries are
// actually read off the wire.
const v2MaxPrealloc = 1 << 12

// binaryCodecV2 is the v2 binary codec.
type binaryCodecV2 struct{}

// Version implements Codec.
func (binaryCodecV2) Version() int { return 2 }

// ContentType implements Codec.
func (binaryCodecV2) ContentType() string { return ContentTypeV2 }

// Encode implements Codec.
func (c binaryCodecV2) Encode(s Summary) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(64 + 16*s.Size())
	if err := encodeSummaryV2(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeTo implements Codec. The v2 layout streams: entries are written
// one at a time, so a giant summary flows through a bounded buffer
// instead of materializing a second copy of itself. Writers without
// their own buffering are wrapped in one (the writer issues many small
// field-sized writes).
func (binaryCodecV2) EncodeTo(w io.Writer, s Summary) error {
	switch w.(type) {
	case *bytes.Buffer, *bufio.Writer:
		return encodeSummaryV2(w, s)
	}
	bw := bufio.NewWriterSize(w, 32<<10)
	if err := encodeSummaryV2(bw, s); err != nil {
		return err
	}
	return bw.Flush()
}

// encodeSummaryV2 writes one summary in the v2 layout.
func encodeSummaryV2(dst io.Writer, s Summary) error {
	w := &v2Writer{w: dst}
	switch t := s.(type) {
	case interface{ wireBytes() []byte }:
		// Zero-copy views were parsed from a validated CANONICAL v2 message
		// (ParseSummaryView accepts nothing else), so re-encoding is a raw
		// byte copy of exactly what any other branch would re-derive.
		w.write(t.wireBytes())
	case *PPSSummary:
		w.header(v2KindPPS, t.parent.seeder, t.Instance)
		w.float64(t.Tau)
		w.weightedEntries(t.Sample.Values)
	case *SetSummary:
		w.header(v2KindSet, t.parent.seeder, t.Instance)
		w.float64(t.P)
		w.memberEntries(t.Members)
	case *BottomKSummary:
		w.header(v2KindBottomK, t.parent.seeder, t.Instance)
		switch t.Sample.Family.(type) {
		case sampling.PPS:
			w.byte(v2FamilyPPS)
		case sampling.EXP:
			w.byte(v2FamilyEXP)
		default:
			return fmt.Errorf("core: v2 encoding of unknown rank family %q", t.Sample.Family.Name())
		}
		w.float64(t.Sample.Tau)
		w.weightedEntries(t.Sample.Values)
	case *VarOptSummary:
		// Entries carry the ORIGINAL weights; adjusted weights are the
		// decode-side identity max(w, tau), keeping the entry layout shared
		// with the other weighted kinds.
		w.header(v2KindVarOpt, t.parent.seeder, t.Instance)
		w.float64(t.Sample.Tau)
		w.weightedEntries(t.Sample.Original)
	default:
		return fmt.Errorf("core: v2 encoding of unknown summary kind %q", s.Kind())
	}
	return w.err
}

// DecodeFrom implements Codec. Decoding is streaming: entries are read one
// at a time through a bounded buffer.
func (binaryCodecV2) DecodeFrom(r io.Reader) (Summary, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 4096)
	}
	return decodeSummaryV2(br, false)
}

// v2Writer serializes the layout above into any io.Writer with a sticky
// error: after the first write failure every later method is a no-op, so
// the encoding functions check err once at the end.
type v2Writer struct {
	w   io.Writer
	err error
}

func (w *v2Writer) write(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *v2Writer) byte(b byte) { w.write([]byte{b}) }

func (w *v2Writer) uint64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.write(b[:])
}

func (w *v2Writer) float64(v float64) { w.uint64(math.Float64bits(v)) }

func (w *v2Writer) uvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	w.write(b[:binary.PutUvarint(b[:], v)])
}

func (w *v2Writer) varint(v int64) {
	var b [binary.MaxVarintLen64]byte
	w.write(b[:binary.PutVarint(b[:], v)])
}

func (w *v2Writer) header(kind byte, seeder xhash.Seeder, instance int) {
	w.byte(v2Magic0)
	w.byte(v2Magic1)
	w.byte(2)
	w.byte(kind)
	var flags byte
	if seeder.Shared {
		flags |= v2FlagShared
	}
	w.byte(flags)
	w.uint64(seeder.Salt)
	w.varint(int64(instance))
}

// sortedKeys returns m's keys ascending — the deterministic entry order.
func sortedKeys[V any](m map[dataset.Key]V) []dataset.Key {
	keys := make([]dataset.Key, 0, len(m))
	for h := range m {
		keys = append(keys, h)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func (w *v2Writer) weightedEntries(values map[dataset.Key]float64) {
	w.uvarint(uint64(len(values)))
	for _, h := range sortedKeys(values) {
		w.uint64(uint64(h))
		w.float64(values[h])
	}
}

func (w *v2Writer) memberEntries(members map[dataset.Key]bool) {
	w.uvarint(uint64(len(members)))
	for _, h := range sortedKeys(members) {
		w.uint64(uint64(h))
	}
}

// v2Reader decodes the layout, mapping any truncation to a decode error
// instead of a bare EOF. stored marks a record the store itself wrote: its
// entry values are taken as they are (see DecodeStoredSummary).
type v2Reader struct {
	br     *bufio.Reader
	stored bool
}

func (r v2Reader) fail(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("core: decoding v2 summary: %w", err)
}

func (r v2Reader) byte() (byte, error) {
	b, err := r.br.ReadByte()
	if err != nil {
		return 0, r.fail(err)
	}
	return b, nil
}

func (r v2Reader) uint64() (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r.br, b[:]); err != nil {
		return 0, r.fail(err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func (r v2Reader) float64() (float64, error) {
	bits, err := r.uint64()
	return math.Float64frombits(bits), err
}

func (r v2Reader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, r.fail(err)
	}
	return v, nil
}

func (r v2Reader) varint() (int64, error) {
	v, err := binary.ReadVarint(r.br)
	if err != nil {
		return 0, r.fail(err)
	}
	return v, nil
}

// prealloc bounds the up-front map reservation for a declared entry count.
func prealloc(count uint64) int {
	if count > v2MaxPrealloc {
		return v2MaxPrealloc
	}
	return int(count)
}

// decodeSummaryV2 reads one v2 summary off the stream, leaving the reader
// positioned after the final entry (trailing bytes are the caller's
// concern — a stream may carry more than one message). stored skips the
// ingress-only entry value check.
func decodeSummaryV2(br *bufio.Reader, stored bool) (Summary, error) {
	r := v2Reader{br: br, stored: stored}
	var head [5]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, r.fail(err)
	}
	if head[0] != v2Magic0 || head[1] != v2Magic1 {
		return nil, fmt.Errorf("core: decoding v2 summary: bad magic %#02x %#02x", head[0], head[1])
	}
	if head[2] != 2 {
		// The magic matched but the version is from the future: surface the
		// typed error so callers can negotiate down.
		return nil, fmt.Errorf("core: binary summary version %d (supported: %v): %w",
			head[2], SupportedWireVersions(), ErrUnknownVersion)
	}
	kind, flags := head[3], head[4]
	if flags&^v2FlagShared != 0 {
		return nil, fmt.Errorf("core: decoding v2 summary: undefined flag bits %#02x", flags)
	}
	salt, err := r.uint64()
	if err != nil {
		return nil, err
	}
	instance, err := r.varint()
	if err != nil {
		return nil, err
	}
	if int64(int(instance)) != instance {
		return nil, fmt.Errorf("core: decoding v2 summary: instance %d out of range", instance)
	}
	parent := &Summarizer{seeder: xhash.Seeder{Salt: salt, Shared: flags&v2FlagShared != 0}}

	switch kind {
	case v2KindPPS:
		tau, err := r.float64()
		if err != nil {
			return nil, err
		}
		if !(tau > 0) || math.IsInf(tau, 1) {
			return nil, fmt.Errorf("core: invalid tau %v", tau)
		}
		vals, err := r.weightedEntries()
		if err != nil {
			return nil, err
		}
		return &PPSSummary{
			Instance: int(instance),
			Tau:      tau,
			Sample:   &sampling.WeightedSample{Values: vals, Tau: 1 / tau, Family: sampling.PPS{}},
			parent:   parent,
		}, nil
	case v2KindSet:
		p, err := r.float64()
		if err != nil {
			return nil, err
		}
		if !(p > 0 && p <= 1) {
			return nil, fmt.Errorf("core: invalid sampling probability %v", p)
		}
		members, err := r.memberEntries()
		if err != nil {
			return nil, err
		}
		return &SetSummary{
			Instance: int(instance),
			P:        p,
			Members:  members,
			parent:   parent,
		}, nil
	case v2KindBottomK:
		famTag, err := r.byte()
		if err != nil {
			return nil, err
		}
		var fam sampling.RankFamily
		switch famTag {
		case v2FamilyPPS:
			fam = sampling.PPS{}
		case v2FamilyEXP:
			fam = sampling.EXP{}
		default:
			return nil, fmt.Errorf("core: unknown rank family tag %d", famTag)
		}
		tau, err := r.float64()
		if err != nil {
			return nil, err
		}
		if !(tau > 0) { // +Inf (the unbounded threshold) passes; 0, negatives, NaN fail
			return nil, fmt.Errorf("core: invalid rank threshold %v", tau)
		}
		vals, err := r.weightedEntries()
		if err != nil {
			return nil, err
		}
		return &BottomKSummary{
			Instance: int(instance),
			Sample:   &sampling.WeightedSample{Values: vals, Tau: tau, Family: fam},
			parent:   parent,
		}, nil
	case v2KindVarOpt:
		tau, err := r.float64()
		if err != nil {
			return nil, err
		}
		if !(tau >= 0) || math.IsInf(tau, 1) { // 0 (never overflowed) passes; negatives, NaN, +Inf fail
			return nil, fmt.Errorf("core: invalid varopt threshold %v", tau)
		}
		vals, err := r.weightedEntries()
		if err != nil {
			return nil, err
		}
		return &VarOptSummary{
			Instance: int(instance),
			Sample:   varOptSampleFromWire(vals, tau),
			parent:   parent,
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown v2 summary kind tag %d", kind)
	}
}

// checkEntryValue refuses a weighted entry no sampler produces and no
// estimator is defined on: a negative, infinite or NaN value. (A stored
// +Inf would also make every sum over the summary unencodable as JSON.)
// Every decoder that accepts a summary from outside applies it — both wire
// versions, hydrating and view; only the store's replay of its own records
// (DecodeStoredSummary) does not, so a log never becomes unreadable over a
// value some earlier ingress let through.
func checkEntryValue(key uint64, v float64) error {
	if !validEntryValue(v) {
		return fmt.Errorf("core: invalid entry value %v for key %d", v, key)
	}
	return nil
}

func validEntryValue(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// checkWireValues is checkEntryValue over a decoded v1 value map (skipped
// for a stored record). The smallest offending key is the one named, so
// the error does not depend on map iteration order.
func checkWireValues(vals map[dataset.Key]float64, stored bool) error {
	if stored {
		return nil
	}
	var bad dataset.Key
	found := false
	//summarylint:ignore a minimum over the offending keys is the same in any iteration order
	for h, v := range vals {
		if !validEntryValue(v) && (!found || h < bad) {
			bad, found = h, true
		}
	}
	if !found {
		return nil
	}
	return checkEntryValue(uint64(bad), vals[bad])
}

// weightedEntries streams (key, value) entries into a fresh map.
func (r v2Reader) weightedEntries() (map[dataset.Key]float64, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	vals := make(map[dataset.Key]float64, prealloc(n))
	for i := uint64(0); i < n; i++ {
		k, err := r.uint64()
		if err != nil {
			return nil, err
		}
		v, err := r.float64()
		if err != nil {
			return nil, err
		}
		if !r.stored {
			if err := checkEntryValue(k, v); err != nil {
				return nil, err
			}
		}
		vals[dataset.Key(k)] = v
	}
	if uint64(len(vals)) != n {
		return nil, fmt.Errorf("core: decoding v2 summary: %d duplicate keys", n-uint64(len(vals)))
	}
	return vals, nil
}

// memberEntries streams member keys into a fresh set.
func (r v2Reader) memberEntries() (map[dataset.Key]bool, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	members := make(map[dataset.Key]bool, prealloc(n))
	for i := uint64(0); i < n; i++ {
		k, err := r.uint64()
		if err != nil {
			return nil, err
		}
		members[dataset.Key(k)] = true
	}
	if uint64(len(members)) != n {
		return nil, fmt.Errorf("core: decoding v2 summary: %d duplicate keys", n-uint64(len(members)))
	}
	return members, nil
}
