package trace

// W3C trace-context (traceparent) parsing and formatting. The header is
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//	  00      -  32 hex   -   16 hex    -    2 hex
//
// parsed strictly: lowercase hex only, all-zero trace or span IDs are
// invalid, version ff is invalid, and a version-00 header must be exactly
// 55 bytes. Higher versions are accepted when they are either exactly 55
// bytes or continue with a dash (forward compatibility per the spec);
// anything else is rejected and the caller starts a fresh root trace.

const traceparentLen = 55 // "00-" + 32 + "-" + 16 + "-" + 2

// SpanContext is the wire identity of one span: the trace it belongs to,
// its own span ID, and the trace flags. The zero value is invalid.
type SpanContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   byte
}

// valid reports whether both IDs are non-zero, the W3C condition for a
// usable parent context.
func (sc SpanContext) valid() bool {
	return sc.TraceID != [16]byte{} && sc.SpanID != [8]byte{}
}

// Traceparent renders the context as a version-00 traceparent header
// value.
func (sc SpanContext) Traceparent() string {
	var b [traceparentLen]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hexEncode(b[3:35], sc.TraceID[:])
	b[35] = '-'
	hexEncode(b[36:52], sc.SpanID[:])
	b[52] = '-'
	b[53] = hexDigit(sc.Flags >> 4)
	b[54] = hexDigit(sc.Flags & 0x0f)
	return string(b[:])
}

// ParseTraceparent parses a traceparent header value. ok is false for
// any malformed input — wrong length, uppercase or non-hex digits,
// all-zero IDs, version ff, or a version-00 header with trailing bytes —
// in which case the caller must ignore the header and mint a new trace.
func ParseTraceparent(s string) (sc SpanContext, ok bool) {
	if len(s) < traceparentLen {
		return SpanContext{}, false
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	version, ok := hexDecodeByte(s[0], s[1])
	if !ok || version == 0xff {
		return SpanContext{}, false
	}
	if len(s) > traceparentLen {
		// Version 00 is exactly 55 bytes; future versions may append
		// dash-separated fields we ignore.
		if version == 0 || s[traceparentLen] != '-' {
			return SpanContext{}, false
		}
	}
	if !hexDecode(sc.TraceID[:], s[3:35]) || !hexDecode(sc.SpanID[:], s[36:52]) {
		return SpanContext{}, false
	}
	flags, ok := hexDecodeByte(s[53], s[54])
	if !ok {
		return SpanContext{}, false
	}
	sc.Flags = flags
	if !sc.valid() {
		return SpanContext{}, false
	}
	return sc, true
}

const hexDigits = "0123456789abcdef"

func hexDigit(v byte) byte { return hexDigits[v&0x0f] }

// hexEncode writes src as lowercase hex into dst (len(dst) = 2*len(src)).
func hexEncode(dst, src []byte) {
	for i, b := range src {
		dst[2*i] = hexDigit(b >> 4)
		dst[2*i+1] = hexDigit(b & 0x0f)
	}
}

// hexDecode fills dst from the lowercase-hex string s, reporting whether
// every digit was valid. len(s) must be 2*len(dst).
func hexDecode(dst []byte, s string) bool {
	for i := range dst {
		b, ok := hexDecodeByte(s[2*i], s[2*i+1])
		if !ok {
			return false
		}
		dst[i] = b
	}
	return true
}

// hexDecodeByte decodes two lowercase-hex digits. Uppercase is invalid
// on the wire per the W3C spec.
func hexDecodeByte(hi, lo byte) (byte, bool) {
	h, ok := hexNibble(hi)
	if !ok {
		return 0, false
	}
	l, ok := hexNibble(lo)
	if !ok {
		return 0, false
	}
	return h<<4 | l, true
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// hexString renders b as a lowercase-hex string (for JSON records and
// log fields).
func hexString(b []byte) string {
	out := make([]byte, 2*len(b))
	hexEncode(out, b)
	return string(out)
}
