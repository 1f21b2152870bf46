package core

import (
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The codec API is the summary serialization seam: every wire format —
// today the v1 JSON format and the v2 binary format, later compressed or
// columnar layouts — is a Codec registered per version, and everything
// that moves summaries (the summary server, pkg/client, the CLIs) speaks
// through the registry instead of hard-coding an encoding. The historical
// Encode*/Decode*Summary entry points in encode.go are thin wrappers over
// the registered codecs.

// Codec encodes and decodes summaries of one wire-format version.
// Implementations must round-trip exactly: for any summary s,
// DecodeFrom(Encode(s)) yields a summary that answers every query with
// bit-identical floats — codecs change bytes on the wire, never estimates.
type Codec interface {
	// Version is the wire-format version the codec speaks (1, 2, ...).
	Version() int
	// ContentType is the canonical HTTP content type of the format, the
	// token version negotiation exchanges (Content-Type on posts, Accept
	// on fetches).
	ContentType() string
	// Encode serializes a summary. The encoding is deterministic: equal
	// summaries produce equal bytes.
	Encode(Summary) ([]byte, error)
	// EncodeTo writes exactly the bytes Encode would return into w, so
	// every caller — the WAL, snapshots, HTTP response bodies — uses one
	// code path. The v2 codec writes the summary's own bytes without
	// copying them; the v1 JSON codec marshals first (encoding/json cannot
	// emit a document incrementally).
	EncodeTo(io.Writer, Summary) error
	// DecodeFrom reconstructs a summary from a stream carrying exactly one
	// message, reading it to its end: a JSON document cannot be validated
	// incrementally, and a v2 message's bytes become the summary.
	DecodeFrom(io.Reader) (Summary, error)
}

// Wire content types, the negotiation vocabulary. Version 1 is plain JSON;
// binary formats follow the application/x-summary-v<N> pattern.
const (
	// ContentTypeJSON is the canonical content type of the v1 JSON format.
	ContentTypeJSON = "application/json"
	// ContentTypeV2 is the content type of the v2 binary format.
	ContentTypeV2 = "application/x-summary-v2"
)

// wireContentTypePrefix is the pattern shared by every binary wire
// version's content type.
const wireContentTypePrefix = "application/x-summary-v"

var (
	codecMu sync.RWMutex
	codecs  = map[int]Codec{}
)

// RegisterCodec adds a codec to the version registry. It panics on a
// duplicate or non-positive version — codecs are registered at init time,
// and a collision is a programming error, not a runtime condition.
func RegisterCodec(c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	v := c.Version()
	if v <= 0 {
		panic(fmt.Sprintf("core: RegisterCodec with non-positive version %d", v))
	}
	if _, dup := codecs[v]; dup {
		panic(fmt.Sprintf("core: duplicate codec for wire version %d", v))
	}
	codecs[v] = c
}

func init() {
	RegisterCodec(jsonCodec{})
	RegisterCodec(binaryCodecV2{})
}

// SupportedWireVersions lists the registered wire-format versions in
// ascending order — what a negotiating server advertises next to a 415.
func SupportedWireVersions() []int {
	codecMu.RLock()
	defer codecMu.RUnlock()
	out := make([]int, 0, len(codecs))
	for v := range codecs {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// CodecByVersion returns the codec registered for a wire version, or an
// error wrapping ErrUnknownVersion naming the supported versions.
func CodecByVersion(v int) (Codec, error) {
	codecMu.RLock()
	c, ok := codecs[v]
	codecMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: summary wire version %d (supported: %v): %w",
			v, SupportedWireVersions(), ErrUnknownVersion)
	}
	return c, nil
}

// ParseWireContentType maps an HTTP content type to the wire version it
// names: application/json (any parameters) is version 1,
// application/x-summary-v<N> is version N. Content types outside the wire
// vocabulary (text/csv, multipart/…, the empty string) return ok = false —
// they name no version at all, which callers usually treat as "sniff".
func ParseWireContentType(ct string) (version int, ok bool) {
	media, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return 0, false
	}
	if media == ContentTypeJSON {
		return 1, true
	}
	if rest, found := strings.CutPrefix(media, wireContentTypePrefix); found {
		if v, err := strconv.Atoi(rest); err == nil && v > 0 {
			return v, true
		}
	}
	return 0, false
}

// CodecByContentType resolves a content type to its codec. Content types
// naming an unregistered wire version (a future application/x-summary-v9)
// return an error wrapping ErrUnknownVersion; content types outside the
// wire vocabulary return ok = false with a nil error.
func CodecByContentType(ct string) (c Codec, ok bool, err error) {
	v, named := ParseWireContentType(ct)
	if !named {
		return nil, false, nil
	}
	c, err = CodecByVersion(v)
	if err != nil {
		return nil, false, err
	}
	return c, true, nil
}

// EncodeSummary serializes a summary in the requested wire version.
// EncodeSummary(s, 1) is the JSON bytes json.Marshal would produce;
// EncodeSummary(s, 2) is the binary v2 layout.
func EncodeSummary(s Summary, version int) ([]byte, error) {
	c, err := CodecByVersion(version)
	if err != nil {
		return nil, err
	}
	return c.Encode(s)
}

// SniffWireVersion inspects the leading bytes of an encoded summary and
// reports the wire version they claim: binary payloads carry the version
// in their header, any other non-empty payload is v1 JSON. The claim is
// unvalidated — decoding is still the arbiter.
func SniffWireVersion(data []byte) (version int, ok bool) {
	if len(data) >= 3 && hasV2Magic(data) {
		return int(data[2]), true
	}
	if len(data) > 0 {
		return 1, true
	}
	return 0, false
}

// DecodeSummaryFrom reconstructs a summary of any kind and any registered
// wire version from a stream carrying exactly one message, sniffing the
// format: the v2 binary magic selects the binary codec, anything else is
// treated as v1 JSON. It returns the wire version the payload actually
// carried alongside the summary. It is the trust-boundary entry point for
// services that accept posted summaries without knowing their format in
// advance.
func DecodeSummaryFrom(r io.Reader) (Summary, int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 1, fmt.Errorf("core: reading summary: %w", err)
	}
	if hasV2Magic(data) {
		s, err := decodeWholeV2(data, false, "core: trailing data after v2 summary")
		return s, 2, err
	}
	s, err := decodeSummaryJSON(data, false)
	return s, 1, err
}

// jsonCodec is the v1 wire format: the JSON documents the Marshal/Decode
// entry points of encode.go have always produced. It buffers on decode —
// the price of a self-describing text format.
type jsonCodec struct{}

// Version implements Codec.
func (jsonCodec) Version() int { return 1 }

// ContentType implements Codec.
func (jsonCodec) ContentType() string { return ContentTypeJSON }

// Encode implements Codec. The JSON encoding is deterministic:
// encoding/json sorts map keys.
func (jsonCodec) Encode(s Summary) ([]byte, error) {
	return json.Marshal(s)
}

// EncodeTo implements Codec. JSON cannot be emitted incrementally
// (json.Encoder would also append a newline Encode never produces), so
// this marshals and writes — byte-identical to Encode, just through w.
func (c jsonCodec) EncodeTo(w io.Writer, s Summary) error {
	data, err := c.Encode(s)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// DecodeFrom implements Codec.
func (jsonCodec) DecodeFrom(r io.Reader) (Summary, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading summary: %w", err)
	}
	return decodeSummaryJSON(data, false)
}
