package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/dataset"
)

// The raw-ingest scanners turn a CSV or ndjson body into pushes without
// allocating per pair. Lines are views of the scanner's buffer. A CSV line
// is cut at its commas with bytes.IndexByte and each field parsed in
// place: keys by a digits loop (strconv.ParseUint for anything else),
// values by strconv.ParseFloat over a zero-copy string view. An ndjson
// line goes first to lexNDJSON, a strict lexer for the one shape producers
// are documented to send; a line it does not recognise, valid or not, is
// handed whole to encoding/json, whose results and error text are the
// scanners' contract. scan_ref_test.go holds the all-library scanners
// these are fuzzed against.

// lineBufPool recycles the scanners' 64 KiB line buffers across requests.
// Nothing that outlives a scan may alias one: errors copy what they quote.
var lineBufPool = sync.Pool{New: func() any { return new([64 * 1024]byte) }}

// lineReader yields the non-blank lines of a body, trimmed, with their
// 1-based line numbers (blank lines count).
type lineReader struct {
	sc     *bufio.Scanner
	buf    *[64 * 1024]byte
	lineNo int // of the line next last returned
}

func newLineReader(body io.Reader) lineReader {
	buf := lineBufPool.Get().(*[64 * 1024]byte)
	sc := bufio.NewScanner(body)
	sc.Buffer(buf[:], maxIngestLine)
	return lineReader{sc: sc, buf: buf}
}

// next returns the next non-blank line, or nil at the end of the body or
// on a read error. The line is valid until the following call.
func (l *lineReader) next() []byte {
	for l.sc.Scan() {
		l.lineNo++
		if line := bytes.TrimSpace(l.sc.Bytes()); len(line) > 0 {
			return line
		}
	}
	return nil
}

// err reports why next stopped, nil at a clean end of body.
func (l *lineReader) err() error {
	if err := l.sc.Err(); err != nil {
		return fmt.Errorf("server: reading pair stream: %w", err)
	}
	return nil
}

// release returns the line buffer to the pool; no line may be used after.
func (l *lineReader) release() { lineBufPool.Put(l.buf) }

// bytesView returns b as a string without copying. The string is only
// valid while b is unchanged, so it must not be stored or put in an error.
func bytesView(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// checkIngestValue enforces the shared value constraint of the weighted
// scanners: nonnegative and finite (zero-valued pairs are legal; weighted
// samplers never retain them).
func checkIngestValue(v float64, lineNo int) error {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("server: line %d: value %v outside [0, +Inf)", lineNo, v)
	}
	return nil
}

// cutField splits a CSV line at its first comma into the trimmed field
// before it and the untouched rest; more is false when there is no comma
// and the whole line is the field.
//
//summarylint:hot
func cutField(line []byte) (field, rest []byte, more bool) {
	if i := bytes.IndexByte(line, ','); i >= 0 {
		return bytes.TrimSpace(line[:i]), line[i+1:], true
	}
	return bytes.TrimSpace(line), nil, false
}

// lexUint reads a JSON integer without sign, fraction or exponent at
// b[i:] — "0", or up to 19 digits not starting with 0, which cannot
// overflow a uint64 — returning its value and end.
//
//summarylint:hot
func lexUint(b []byte, i int) (n uint64, end int, ok bool) {
	start := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	digits := i - start
	return n, i, digits == 1 || (digits > 1 && digits <= 19 && b[start] != '0')
}

// lexInt reads an optional '-' and a lexUint of at most 18 digits, which
// cannot overflow an int64.
//
//summarylint:hot
func lexInt(b []byte, i int) (n int, end int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	u, end, ok := lexUint(b, i)
	if !ok || end-i > 18 {
		return 0, end, false
	}
	v := int64(u)
	if neg {
		v = -v
	}
	return int(v), end, int64(int(v)) == v
}

// parseFloat is strconv.ParseFloat(string(b), 64) without the copy.
func parseFloat(b []byte) (float64, error) {
	v, err := strconv.ParseFloat(bytesView(b), 64)
	if err != nil {
		// Parse a copy again so the error cannot alias the line buffer.
		_, err = strconv.ParseFloat(string(b), 64)
	}
	return v, err
}

// csvKey parses a CSV key column: a whole-field lexUint, else whatever
// strconv.ParseUint makes of it ("007", twenty digits, an error).
func csvKey(field []byte, lineNo int) (uint64, error) {
	if n, end, ok := lexUint(field, 0); ok && end == len(field) {
		return n, nil
	}
	n, err := strconv.ParseUint(bytesView(field), 10, 64)
	if err != nil {
		// Parse a copy again so the error cannot alias the line buffer.
		_, err = strconv.ParseUint(string(field), 10, 64)
		return 0, fmt.Errorf("server: csv line %d: bad key: %w", lineNo, err)
	}
	return n, nil
}

// csvValue parses a CSV value column with strconv.ParseFloat.
func csvValue(field []byte, lineNo int) (float64, error) {
	v, err := parseFloat(field)
	if err != nil {
		return 0, fmt.Errorf("server: csv line %d: bad value: %w", lineNo, err)
	}
	return v, nil
}

// ndjsonFields is what lexNDJSON read from one line; key is always set,
// has says which of the optional two are. (Four fields, so the compiler
// keeps the struct in registers across the call.)
type ndjsonFields struct {
	key      uint64
	instance int
	value    float64
	has      uint8 // hasInstance | hasValue
}

const (
	hasInstance = 1 << iota
	hasValue
)

// lexNDJSON is the ndjson fast path. It recognises exactly
//
//	{"key":<uint>[,"instance":<int>][,"value":<number>]}
//
// on a trimmed line: these names in this order and case, JSON whitespace
// between tokens, a lexUint key, a lexInt instance, and a value in the
// JSON number grammar (no leading zeros, "+", ".5", "1.", hex or Inf)
// that strconv.ParseFloat accepts without a range error. For such a line
// encoding/json decodes the same fields to the same bits. Every other
// line — valid or not — returns ok false and is decoded, or rejected, by
// encoding/json.
//
//summarylint:hot
func lexNDJSON(line []byte) (f ndjsonFields, ok bool) {
	i, ok := lexJSONName(line, 0, '{', `"key"`)
	if !ok {
		return f, false
	}
	if f.key, i, ok = lexUint(line, i); !ok {
		return f, false
	}
	i = skipJSONSpace(line, i)
	if j, found := lexJSONName(line, i, ',', `"instance"`); found {
		if f.instance, i, ok = lexInt(line, j); !ok {
			return f, false
		}
		f.has |= hasInstance
		i = skipJSONSpace(line, i)
	}
	if j, found := lexJSONName(line, i, ',', `"value"`); found {
		if f.value, i, ok = lexJSONFloat(line, j); !ok {
			return f, false
		}
		f.has |= hasValue
		i = skipJSONSpace(line, i)
	}
	return f, i == len(line)-1 && line[i] == '}'
}

// lexJSONFloat reads the JSON number literal at b[i:] as a float64 with
// strconv.ParseFloat; ok is false for a range error, too.
//
//summarylint:hot
func lexJSONFloat(b []byte, i int) (v float64, end int, ok bool) {
	if end, ok = lexJSONNumber(b, i); !ok {
		return 0, end, false
	}
	v, err := strconv.ParseFloat(bytesView(b[i:end]), 64)
	return v, end, err == nil
}

// skipJSONSpace returns the index of the first byte of b at or after i
// that is not JSON whitespace.
//
//summarylint:hot
func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// lexJSONName consumes `<open> name :` at b[i:], with optional whitespace
// after each token, and returns the index of the member's value.
//
//summarylint:hot
func lexJSONName(b []byte, i int, open byte, name string) (int, bool) {
	if i >= len(b) || b[i] != open {
		return i, false
	}
	i = skipJSONSpace(b, i+1)
	if len(b)-i < len(name) || string(b[i:i+len(name)]) != name {
		return i, false
	}
	i = skipJSONSpace(b, i+len(name))
	if i >= len(b) || b[i] != ':' {
		return i, false
	}
	return skipJSONSpace(b, i+1), true
}

// lexJSONNumber returns the end of the JSON number literal at b[i:].
//
//summarylint:hot
func lexJSONNumber(b []byte, i int) (end int, ok bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return i, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return i, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return i, false
		}
		i = j
	}
	return i, true
}

// skipDigits returns the index of the first non-digit of b at or after i.
//
//summarylint:hot
func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}

// scanPairs streams (key, value) pairs out of a CSV or ndjson body into
// push, returning the number of pairs consumed. CSV lines are
// "key,value" ("key" alone when keysOnly; a leading "key,value" header is
// tolerated); ndjson lines are {"key": u64, "value": f64}. Values must be
// nonnegative and finite.
//
// The instances×keys model assigns one value per key per instance, and
// the engine's streaming samplers rely on it (a repeated key corrupts
// bottom-k heap state). Unless keysOnly (set sampling, where a repeated
// member is harmless and deduplication is implicit), scanPairs therefore
// rejects a stream that repeats a key — producers must aggregate per-key
// before ingesting. The check is exact: one keySet probe per pair, no
// allocation per pair, and 16 to 32 bytes of table per distinct key for
// the length of the request, which maxIngestBody bounds.
func scanPairs(body io.Reader, format string, keysOnly bool, push func(dataset.Key, float64)) (int64, error) {
	in := newLineReader(body)
	defer in.release()
	csv := format == "csv"
	seen := newKeySet()
	var pairs int64
	for line := in.next(); line != nil; line = in.next() {
		var key uint64
		var value float64
		var err error
		if csv {
			if in.lineNo == 1 && (string(line) == "key,value" || string(line) == "key") {
				continue
			}
			key, value, err = csvPair(line, in.lineNo, keysOnly)
		} else {
			key, value, err = ndjsonPair(line, in.lineNo, keysOnly)
		}
		if err != nil {
			return pairs, err
		}
		if err := checkIngestValue(value, in.lineNo); err != nil {
			return pairs, err
		}
		if !keysOnly && !seen.add(key) {
			return pairs, fmt.Errorf("server: line %d: key %d repeated; weighted ingest needs one value per key (aggregate before posting)", in.lineNo, key)
		}
		push(dataset.Key(key), value)
		pairs++
	}
	return pairs, in.err()
}

// csvPair decodes one "key[,value]" line; the value column is optional
// only when keysOnly.
func csvPair(line []byte, lineNo int, keysOnly bool) (key uint64, value float64, err error) {
	keyField, rest, hasValue := cutField(line)
	var valueField []byte
	if hasValue {
		var extra []byte
		var more bool
		if valueField, extra, more = cutField(rest); more {
			return 0, 0, fmt.Errorf("server: csv line %d: expected key,value, got extra columns %q", lineNo, string(extra))
		}
	}
	if key, err = csvKey(keyField, lineNo); err != nil {
		return 0, 0, err
	}
	if hasValue {
		value, err = csvValue(valueField, lineNo)
	} else if !keysOnly {
		err = fmt.Errorf("server: csv line %d: weighted ingest needs key,value", lineNo)
	}
	return key, value, err
}

// ndjsonPair decodes one {"key","value"} line; the value is optional only
// when keysOnly.
func ndjsonPair(line []byte, lineNo int, keysOnly bool) (key uint64, value float64, err error) {
	f, ok := lexNDJSON(line)
	if !ok {
		var rec struct {
			Key   *uint64  `json:"key"`
			Value *float64 `json:"value"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return 0, 0, fmt.Errorf("server: ndjson line %d: %w", lineNo, err)
		}
		if rec.Key == nil {
			return 0, 0, fmt.Errorf("server: ndjson line %d: missing key", lineNo)
		}
		f.key = *rec.Key
		if rec.Value != nil {
			f.value, f.has = *rec.Value, hasValue
		}
	}
	if f.has&hasValue == 0 && !keysOnly {
		return 0, 0, fmt.Errorf("server: ndjson line %d: weighted ingest needs a value", lineNo)
	}
	return f.key, f.value, nil
}

// scanMultiPairs streams (key, instance, value) triples out of a CSV or
// ndjson body into push, returning the number of pairs consumed. CSV
// lines are "key,instance,value" (a leading "key,instance,value" header
// is tolerated); ndjson lines are {"key": u64, "instance": int, "value":
// f64}, all fields required. The instance column holds instance IDs and
// every ID must appear in index (the request's instances parameter, each
// ID mapped to its position 0..len(index)-1); push receives the position.
// A repeated (key, instance) combination is rejected for the same reason
// scanPairs rejects repeated keys, with one keySet per position.
func scanMultiPairs(body io.Reader, format string, index map[int]int, push func(i int, h dataset.Key, v float64)) (int64, error) {
	in := newLineReader(body)
	defer in.release()
	csv := format == "csv"
	seen := make([]keySet, len(index))
	for i := range seen {
		seen[i] = newKeySet()
	}
	var pairs int64
	for line := in.next(); line != nil; line = in.next() {
		var key uint64
		var instance int
		var value float64
		var err error
		if csv {
			if in.lineNo == 1 && string(line) == "key,instance,value" {
				continue
			}
			key, instance, value, err = csvTriple(line, in.lineNo)
		} else {
			key, instance, value, err = ndjsonTriple(line, in.lineNo)
		}
		if err != nil {
			return pairs, err
		}
		if err := checkIngestValue(value, in.lineNo); err != nil {
			return pairs, err
		}
		idx, ok := index[instance]
		if !ok {
			return pairs, fmt.Errorf("server: line %d: instance %d not listed in the instances parameter", in.lineNo, instance)
		}
		if !seen[idx].add(key) {
			return pairs, fmt.Errorf("server: line %d: key %d repeated for instance %d; ingest needs one value per key per instance (aggregate before posting)", in.lineNo, key, instance)
		}
		push(idx, dataset.Key(key), value)
		pairs++
	}
	return pairs, in.err()
}

// csvTriple decodes one "key,instance,value" line.
func csvTriple(line []byte, lineNo int) (key uint64, instance int, value float64, err error) {
	keyField, rest, ok := cutField(line)
	var instanceField, valueField []byte
	if ok {
		instanceField, rest, ok = cutField(rest)
	}
	if ok {
		var extra bool
		valueField, _, extra = cutField(rest)
		ok = !extra
	}
	if !ok {
		return 0, 0, 0, fmt.Errorf("server: csv line %d: multi ingest needs key,instance,value", lineNo)
	}
	if key, err = csvKey(keyField, lineNo); err != nil {
		return 0, 0, 0, err
	}
	if instance, err = strconv.Atoi(bytesView(instanceField)); err != nil {
		// Parse a copy again so the error cannot alias the line buffer.
		_, err = strconv.Atoi(string(instanceField))
		return 0, 0, 0, fmt.Errorf("server: csv line %d: bad instance: %w", lineNo, err)
	}
	if value, err = csvValue(valueField, lineNo); err != nil {
		return 0, 0, 0, err
	}
	return key, instance, value, nil
}

// ndjsonTriple decodes one {"key","instance","value"} line.
func ndjsonTriple(line []byte, lineNo int) (key uint64, instance int, value float64, err error) {
	f, ok := lexNDJSON(line)
	if !ok {
		var rec struct {
			Key      *uint64  `json:"key"`
			Instance *int     `json:"instance"`
			Value    *float64 `json:"value"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return 0, 0, 0, fmt.Errorf("server: ndjson line %d: %w", lineNo, err)
		}
		if rec.Key == nil || rec.Instance == nil || rec.Value == nil {
			return 0, 0, 0, fmt.Errorf("server: ndjson line %d: multi ingest needs key, instance, and value", lineNo)
		}
		return *rec.Key, *rec.Instance, *rec.Value, nil
	}
	if f.has != hasInstance|hasValue {
		return 0, 0, 0, fmt.Errorf("server: ndjson line %d: multi ingest needs key, instance, and value", lineNo)
	}
	return f.key, f.instance, f.value, nil
}
