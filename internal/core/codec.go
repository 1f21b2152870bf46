package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"strconv"
	"strings"
)

// Summaries travel in exactly two wire formats: v1 JSON (encode.go), a
// debug and export encoding, and v2 binary (codecv2.go), the layout a
// summary is held in. Every entry point below is a closed switch over
// those two versions; any other version is ErrUnknownVersion. Neither
// format changes estimates: a summary decoded from either answers every
// query with bit-identical floats.

// Wire content types, the negotiation vocabulary. Version 1 is plain JSON;
// binary formats follow the application/x-summary-v<N> pattern.
const (
	// ContentTypeJSON is the canonical content type of the v1 JSON format.
	ContentTypeJSON = "application/json"
	// ContentTypeV2 is the content type of the v2 binary format.
	ContentTypeV2 = "application/x-summary-v2"
)

// SupportedWireVersions lists the wire-format versions this build speaks,
// in ascending order — what a negotiating server advertises next to a 415
// and on /healthz.
func SupportedWireVersions() []int { return []int{1, 2} }

// unknownVersion is the error for a wire version outside
// SupportedWireVersions.
func unknownVersion(v int) error {
	return fmt.Errorf("core: summary wire version %d (supported: %v): %w",
		v, SupportedWireVersions(), ErrUnknownVersion)
}

// WireVersionByContentType maps an HTTP content type to the wire version
// it names: application/json (any parameters) is version 1,
// application/x-summary-v<N> is version N. A content type outside the wire
// vocabulary (text/csv, multipart/…, the empty string) names no version —
// named is false, and callers usually sniff. A named version this build
// does not speak (a future application/x-summary-v9) returns an error
// wrapping ErrUnknownVersion.
func WireVersionByContentType(ct string) (version int, named bool, err error) {
	media, _, perr := mime.ParseMediaType(ct)
	if perr != nil {
		return 0, false, nil
	}
	if media == ContentTypeJSON {
		return 1, true, nil
	}
	rest, found := strings.CutPrefix(media, "application/x-summary-v")
	if !found {
		return 0, false, nil
	}
	v, aerr := strconv.Atoi(rest)
	switch {
	case aerr != nil || v <= 0:
		return 0, false, nil
	case v != 2:
		return 0, false, unknownVersion(v)
	}
	return 2, true, nil
}

// EncodeSummary serializes a summary in the requested wire version.
// EncodeSummary(s, 1) is the JSON bytes json.Marshal would produce;
// EncodeSummary(s, 2) is a copy of the summary's canonical v2 bytes. Both
// are deterministic: equal summaries encode to equal bytes.
func EncodeSummary(s Summary, version int) ([]byte, error) {
	switch version {
	case 1:
		return json.Marshal(s)
	case 2:
		return bytes.Clone(s.stored().data), nil
	}
	return nil, unknownVersion(version)
}

// EncodeSummaryTo writes exactly the bytes EncodeSummary would return into
// w, so the WAL, snapshots and HTTP response bodies share one code path.
// Version 2 writes the summary's own bytes without copying them; version 1
// marshals first (encoding/json cannot emit a document incrementally, and
// json.Encoder would append a newline EncodeSummary never produces).
func EncodeSummaryTo(w io.Writer, s Summary, version int) error {
	if version == 2 {
		_, err := w.Write(s.stored().data)
		return err
	}
	data, err := EncodeSummary(s, version)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
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

// DecodeSummaryFrom reconstructs a summary of any kind and either wire
// version from a stream carrying exactly one message, sniffing the format:
// the v2 binary magic selects the binary decoder, anything else is treated
// as v1 JSON. It returns the wire version the payload actually carried
// alongside the summary. It is the trust-boundary entry point for services
// that accept posted summaries without knowing their format in advance.
func DecodeSummaryFrom(r io.Reader) (Summary, int, error) {
	data, err := readMessage(r)
	if err != nil {
		return nil, 1, err
	}
	version := 1
	if hasV2Magic(data) {
		version = 2
	}
	s, err := decodeMessage(data, version)
	return s, version, err
}

// DecodeSummaryVersionFrom reconstructs a summary from a stream carrying
// exactly one message of the given wire version, reading it to its end. A
// message in the other format is a decode error, not a guess.
func DecodeSummaryVersionFrom(r io.Reader, version int) (Summary, error) {
	data, err := readMessage(r)
	if err != nil {
		return nil, err
	}
	return decodeMessage(data, version)
}

// DecodeSummaryViewFrom is DecodeSummaryVersionFrom(r, 2) under the name
// bench/summaryload calls it by.
func DecodeSummaryViewFrom(r io.Reader) (Summary, error) {
	return DecodeSummaryVersionFrom(r, 2)
}

// readMessage reads a whole message: a JSON document cannot be validated
// incrementally, and a v2 message's bytes become the summary.
func readMessage(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading summary: %w", err)
	}
	return data, nil
}

// decodeMessage decodes data as exactly one ingress message of the given
// wire version.
func decodeMessage(data []byte, version int) (Summary, error) {
	switch version {
	case 1:
		return decodeSummaryJSON(data)
	case 2:
		return decodeWholeV2(data, false, "core: trailing data after v2 summary")
	}
	return nil, unknownVersion(version)
}
