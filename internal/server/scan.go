package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/xhash"
)

// The raw-ingest scan turns a CSV or ndjson body into pushes without
// allocating per pair. One loop serves every lineShape — key,value pairs
// (the value optional for set ingest) or /v1/ingest/multi's
// key,instance,value triples, in either format. Each format has a window
// lexer (lexCSVLine, lexNDJSONLine) that reads one whole line — leading
// blanks, key digits, separators, instance, value token, trailing blanks,
// newline — in a single forward pass over the line reader's unread bytes:
// a blank-free line of the common shape 8 bytes at a time (lexWords), any
// other byte by byte. It hands only a value the seed cannot reject on to
// strconv.ParseFloat:
// under a rejectGate, a plain value token's leading digit and digit count
// bound its value, and the sampler's own certain-reject test against that
// bound decides most pairs of a full sampler before their value is parsed.
// A line the lexer does not take — a header, a blank line, spacing or a
// number form it cannot prove it reads as the libraries do, a line not yet
// whole in the window — is left where it is for lineReader.next and the
// shape's second tier: bytes.IndexByte cuts and strconv for CSV,
// encoding/json for ndjson, whose results and error text are the scan's
// contract. Pairs collect in a pairBatch, and cross into the repeated-key
// sets and their instances' streams ingestBatch at a time.
// scan_ref_test.go holds the all-library, pair-at-a-time scanners this is
// fuzzed against.

// ingestBatch is how many parsed pairs the scan holds back before it
// checks them for repeats and pushes them: each layer boundary between a
// line and its sampler is then crossed once per batch, not once per pair.
const ingestBatch = 256

// scanBuf is what one scan borrows from scanBufPool: the line buffer and
// the pending batch. Nothing that outlives a scan may alias one: errors
// copy what they quote.
type scanBuf struct {
	line  [64 * 1024]byte
	batch batchColumns
}

var scanBufPool = sync.Pool{New: func() any { return new(scanBuf) }}

// lineReader yields the non-blank lines of a body, trimmed, with their
// 1-based line numbers (blank lines count). It reads the way a
// bufio.Scanner with ScanLines and a (64 KiB, maxIngestLine) buffer does —
// same reads, same lines, same errors — but finds its newlines itself, and
// does not take what the body cap left of a line for a line.
type lineReader struct {
	r          io.Reader
	sb         *scanBuf
	buf        []byte // sb.line, or a heap buffer once a line outgrew it
	start, end int    // buf[start:end] is read and not yet returned
	readErr    error  // why reading stopped, io.EOF included; then buf drains
	lineNo     int    // of the line last returned
}

func newLineReader(body io.Reader) lineReader {
	sb := scanBufPool.Get().(*scanBuf)
	return lineReader{r: body, sb: sb, buf: sb.line[:]}
}

// next returns the next non-blank line, or nil at the end of the body or
// on a read error. The line is valid until the following call.
func (l *lineReader) next() []byte {
	for {
		line, ok := l.readLine()
		if !ok {
			return nil
		}
		l.lineNo++
		if line = bytes.TrimSpace(line); len(line) > 0 {
			return line
		}
	}
}

// window returns the bytes read and not yet returned. They begin at the
// start of a line, and end wherever the last read did.
func (l *lineReader) window() []byte { return l.buf[l.start:l.end] }

// advance counts the first n bytes of the window — one non-blank line and
// its newline — as returned.
func (l *lineReader) advance(n int) {
	l.start += n
	l.lineNo++
}

// readLine returns the next line without its terminator: up to a "\n" or
// "\r\n", or whatever is left when reading has stopped — unless it stopped
// at the body cap, which leaves part of a line.
//
//summarylint:hot
func (l *lineReader) readLine() ([]byte, bool) {
	for {
		data := l.buf[l.start:l.end]
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			l.start += i + 1
			return dropCR(data[:i]), true
		}
		if l.readErr != nil {
			l.start = l.end
			if cutByCap(l.readErr) {
				// Part of a line is not a line to parse: the read error is
				// what is wrong with the request.
				return nil, false
			}
			return dropCR(data), len(data) > 0
		}
		l.fill()
	}
}

// cutByCap reports whether reading stopped because the body ran past its
// http.MaxBytesReader cap.
func cutByCap(readErr error) bool {
	var tooLarge *http.MaxBytesError
	return errors.As(readErr, &tooLarge)
}

// dropCR drops one trailing carriage return.
func dropCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// fill reads more of the body behind the unreturned bytes, first making
// room for it: by moving them to the front of the buffer, and by doubling
// a buffer one line fills, up to maxIngestLine.
func (l *lineReader) fill() {
	if l.start > 0 && (l.end == len(l.buf) || l.start > len(l.buf)/2) {
		copy(l.buf, l.buf[l.start:l.end])
		l.end -= l.start
		l.start = 0
	}
	if l.end == len(l.buf) {
		if len(l.buf) >= maxIngestLine {
			// Unlike a failed read, this ends the scan at once: what is
			// buffered of the oversized line is not a line.
			l.readErr, l.start = bufio.ErrTooLong, l.end
			return
		}
		grown := make([]byte, min(2*len(l.buf), maxIngestLine))
		l.end = copy(grown, l.buf[l.start:l.end])
		l.buf, l.start = grown, 0
	}
	// A reader may return no bytes and no error; not forever.
	for empties := 0; ; empties++ {
		n, err := l.r.Read(l.buf[l.end:])
		if n < 0 || n > len(l.buf)-l.end {
			l.readErr = bufio.ErrBadReadCount
			return
		}
		l.end += n
		if err != nil {
			l.readErr = err
			return
		}
		if n > 0 {
			return
		}
		if empties >= 100 {
			l.readErr = io.ErrNoProgress
			return
		}
	}
}

// err reports why next stopped, nil at a clean end of body.
func (l *lineReader) err() error {
	if l.readErr != nil && l.readErr != io.EOF {
		return fmt.Errorf("server: reading pair stream: %w", l.readErr)
	}
	return nil
}

// release returns the scan's buffers to the pool; no line may be used
// after.
func (l *lineReader) release() { scanBufPool.Put(l.sb) }

// bytesView returns b as a string without copying. The string is only
// valid while b is unchanged, so it must not be stored or put in an error.
func bytesView(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// checkIngestValue enforces the value constraint of the scan: nonnegative
// and finite (zero-valued pairs are legal; weighted samplers never retain
// them).
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

// pairFields is what a window lexer read from one line; key is always set,
// has says which of the optional two are, and whether the value was gated:
// the line has one, the gate proved the pair rejected, and value stays
// unparsed (0). (Four fields, so the compiler keeps the struct in
// registers across the call.)
type pairFields struct {
	key      uint64
	instance int
	value    float64
	has      uint8 // hasInstance | hasValue | gated
}

const (
	hasInstance = 1 << iota
	hasValue
	gated
)

// rejectGate lets a window lexer decide a pair from its key's seed and a
// bound on its value, without parsing the value: guard is the certain-reject
// bound of the sampler the pairs go to (sampling.StreamBottomK.TauGuard),
// seed that sampler's seeds. The zero gate, and one whose guard is NaN, is
// off.
type rejectGate struct {
	seed  xhash.InstanceSeeder
	guard float64
}

// rejects reports whether the gate proves the pair of key rejected whatever
// its value up to hi: u ≥ guard·hi ≥ guard·v is the sampler's own
// certain-reject test. A guard·hi of 1 or more rejects no seed of [0, 1),
// and one of 0 or NaN is an off gate's, so neither costs a hash.
//
//summarylint:hot
func (g rejectGate) rejects(key uint64, hi float64) bool {
	lim := g.guard * hi
	return 0 < lim && lim < 1 && g.seed.Seed(key) >= lim
}

// plainDigits is the most integer digits of a value token the gate
// bounds: (d+1)·10^(n−1) is exact up to n = 22, 10^22 being the largest
// power of ten a float64 holds exactly.
const plainDigits = 22

// pow10 holds the float64 powers 10^0 … 10^21, each exact.
var pow10 = [plainDigits]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21}

// plainBound bounds the value of a plain token — n integer digits, then
// optionally "." and one or more digits; no sign, no exponent — with its
// leading digit d: hi = (d+1)·10^(n−1) is exact and exceeds the token's
// value, so, rounding being monotone, it is at least what
// strconv.ParseFloat makes of it. Such a token is finite and nonnegative,
// so neither ParseFloat nor checkIngestValue can refuse it. The lexers
// count n as they read the number and pass 0 for a token that is not
// plain; ok is false then, and past plainDigits.
//
//summarylint:hot
func plainBound(tok []byte, n int) (hi float64, ok bool) {
	if n < 1 || n > plainDigits {
		return 0, false
	}
	return float64(tok[0]-'0'+1) * pow10[n-1], true
}

// blank marks the whitespace bytes the window lexers skip: those that can
// stand inside a line of what bytes.TrimSpace drops from its ends and,
// equally, of what JSON allows between tokens. Any other whitespace (\v,
// \f, U+0085, U+00A0) leaves the line to the second tier.
var blank = [256]bool{' ': true, '\t': true, '\r': true}

// skipBlank returns the index of the first byte of b at or after i that is
// not blank.
//
//summarylint:hot
func skipBlank(b []byte, i int) int {
	for i < len(b) && blank[b[i]] {
		i++
	}
	return i
}

// The word path. A blank-free line whose every token the lexers would read
// byte by byte is read 8 bytes at a time instead: the fixed tokens as
// little-endian word compares, each digit run as the count of digits
// leading a word and their value by an eight-digit SWAR conversion
// (Lemire), so neither the key nor the value token costs a loop per byte.
// Each word is loaded only where 8 bytes of the window are left, which
// keeps every load inside the line or the lines after it; whatever the word
// path does not prove — blanks, a sign, an exponent, a leading zero, a key
// past 19 digits, a "\r", a line near the window's end — it leaves, and the
// byte path reads the line from its start. So the byte path, and through it
// the second tier, judges every line the word path does not take, and the
// word path takes only lines the byte path takes the same way.

// The fixed tokens of a line the ndjson word path takes, as little-endian
// words: `{"key":`, its first 7 bytes; `,"value"`, the 8 bytes before the
// value's colon; and `,"instance":`, which may stand between the two, as
// `,"instan` and `ce":`.
const (
	ndjsonHead         = '{' | '"'<<8 | 'k'<<16 | 'e'<<24 | 'y'<<32 | '"'<<40 | ':'<<48
	ndjsonValue        = ',' | '"'<<8 | 'v'<<16 | 'a'<<24 | 'l'<<32 | 'u'<<40 | 'e'<<48 | '"'<<56
	ndjsonInstance     = ',' | '"'<<8 | 'i'<<16 | 'n'<<24 | 's'<<32 | 't'<<40 | 'a'<<48 | 'n'<<56
	ndjsonInstanceTail = 'c' | 'e'<<8 | '"'<<16 | ':'<<24
)

// pow10u holds the uint64 powers 10^0 … 10^8, which shift a value past
// the up to 8 digits that follow it.
var pow10u = [9]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// load8 returns b[i:i+8] as a little-endian word; 8 bytes must be left.
//
//summarylint:hot
func load8(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

// nonDigits sets bit 7 of each byte of x that is not an ASCII digit, and
// clears every other bit: x^'0' maps exactly the digits to 0…9, and a byte
// d is above 9 when bit 7 is set in d or in (d&0x7f)+0x76 — a sum that
// cannot carry into the next byte.
//
//summarylint:hot
func nonDigits(x uint64) uint64 {
	d := x ^ 0x3030303030303030
	return (d | (d&0x7f7f7f7f7f7f7f7f + 0x7676767676767676)) & 0x8080808080808080
}

// leadingDigits counts the ASCII digits that lead x read as 8 bytes in
// memory order, 0 to 8.
//
//summarylint:hot
func leadingDigits(x uint64) int { return bits.TrailingZeros64(nonDigits(x)) >> 3 }

// digitsValue is the decimal value of the first n bytes of x, all ASCII
// digits, n from 0 to 8: shifted to the top of the word behind zero bytes,
// which read as leading zeros, they are summed pairwise as 2, 4 and 8
// digits at a time.
//
//summarylint:hot
func digitsValue(x uint64, n int) uint64 {
	x = (x & 0x0f0f0f0f0f0f0f0f) << (64 - 8*n)
	x = x * (10<<8 + 1) >> 8
	x = (x & 0x00ff00ff00ff00ff) * (100<<16 + 1) >> 16
	return (x & 0x0000ffff0000ffff) * (10000<<32 + 1) >> 32
}

// wordInstance reads at b[i:] what lexInt reads of a nonnegative instance
// of at most 7 digits — "0", or digits not starting with 0 — from the one
// word loaded there, and returns its value and end; b[end] is inside the
// window. ok is false for any other instance, and near the window's end.
//
//summarylint:hot
func wordInstance(b []byte, i int) (instance, end int, ok bool) {
	if len(b)-i < 8 {
		return 0, i, false
	}
	x := load8(b, i)
	c := leadingDigits(x)
	if c == 0 || c == 8 || (c > 1 && byte(x) == '0') {
		return 0, i, false
	}
	return int(digitsValue(x, c)), i + c, true
}

// wordRun reads the digit run at b[i:] a word at a time and returns its
// end and, for a run of at most 19 digits, its value. ok is false when a
// word would reach past the window; otherwise b[end] is inside it.
//
//summarylint:hot
func wordRun(b []byte, i int) (v uint64, end int, ok bool) {
	for {
		if len(b)-i < 8 {
			return 0, i, false
		}
		x := load8(b, i)
		c := leadingDigits(x)
		v = v*pow10u[c] + digitsValue(x, c)
		if i += c; c < 8 {
			return v, i, true
		}
	}
}

// lexWords is the word path of both window lexers: for a line with no
// blank that reads
//
//	<uint>,<plain>                                 CSV, or when multi
//	<uint>,<int>,<plain>
//	{"key":<uint>[,"instance":<int>],"value":<plain>}  ndjson
//
// with "\n" after, it returns the fields and length the lexer returns for
// it; for any other line, n = 0 and the lexer reads the line byte by byte.
// The key starts with a nonzero digit and takes two words up to 16 digits
// (wordRun reads a longer one, up to lexUint's 19), whose conversions do
// not wait on each other; the instance is a wordInstance. The value token
// is plain — digits with no leading zero but a lone "0", then optionally
// "." and digits — and is decided as the byte path decides it: gated if g
// rejects the pair of key on plainBound's bound, which needs only the
// token's first digit and length, else its value, which strconv.ParseFloat
// parses as there. A token that ends inside the word loaded at its start —
// up to 7 bytes, the common case — is measured from that one word, its
// first non-digit and, after a ".", its second; a longer one is read by
// wordValueLong.
//
//summarylint:hot
func lexWords(w []byte, csv, multi bool, g rejectGate) (f pairFields, n int) {
	i := 0
	if !csv {
		if len(w) < 8 || load8(w, 0)&(1<<56-1) != ndjsonHead {
			return f, 0
		}
		i = 7
	}
	if len(w)-i < 16 || w[i]-'1' > 8 {
		return f, 0
	}
	x0, x1 := load8(w, i), load8(w, i+8)
	c0, c1 := leadingDigits(x0), leadingDigits(x1)
	var key uint64
	switch {
	case c0 < 8:
		key, i = digitsValue(x0, c0), i+c0
	case c1 < 8:
		key, i = digitsValue(x0, 8)*pow10u[c1]+digitsValue(x1, c1), i+8+c1
	default:
		end, ok := 0, false
		if key, end, ok = wordRun(w, i); !ok || end-i > 19 {
			return f, 0
		}
		i = end
	}
	var ok bool
	if csv {
		if w[i] != ',' {
			return f, 0
		}
		if i++; multi {
			if f.instance, i, ok = wordInstance(w, i); !ok || w[i] != ',' {
				return f, 0
			}
			i++
			f.has = hasInstance
		}
	} else {
		if len(w)-i < 12 {
			return f, 0
		}
		if load8(w, i) == ndjsonInstance {
			if binary.LittleEndian.Uint32(w[i+8:]) != ndjsonInstanceTail {
				return f, 0
			}
			if f.instance, i, ok = wordInstance(w, i+12); !ok || len(w)-i < 9 {
				return f, 0
			}
			f.has = hasInstance
		}
		if load8(w, i) != ndjsonValue || w[i+8] != ':' {
			return f, 0
		}
		i += 9
	}
	if len(w)-i < 8 {
		return f, 0
	}
	x := load8(w, i)
	nd := nonDigits(x)
	plain := bits.TrailingZeros64(nd) >> 3
	length := plain
	if plain < 8 && byte(x>>(8*plain)) == '.' {
		length = bits.TrailingZeros64(nd&(nd-1)) >> 3
	}
	var value float64
	isGated := false
	end := i + length
	if length == 8 {
		if value, isGated, end, ok = wordValueLong(w, i, key, g); !ok {
			return f, 0
		}
	} else if plain == 0 || length == plain+1 || (plain > 1 && byte(x) == '0') {
		return f, 0
	} else if hi, ok := plainBound(w[i:end], plain); ok && g.rejects(key, hi) {
		isGated = true
	} else if value, ok = parsePlain(w[i:end]); !ok {
		return f, 0
	}
	if csv {
		if w[end] != '\n' {
			return f, 0
		}
		n = end + 1
	} else {
		if len(w)-end < 2 || w[end] != '}' || w[end+1] != '\n' {
			return f, 0
		}
		n = end + 2
	}
	f.key, f.value, f.has = key, value, f.has|hasValue
	if isGated {
		f.has |= gated
	}
	return f, n
}

// wordValueLong is lexWords' reader of a value token of 8 bytes or more at
// w[i:]: its digit runs are read a word at a time, and what the gate does
// not reject, ParseFloat parses. ok is false for a token lexWords does not
// take, and for one that runs to within a word of the window's end;
// otherwise w[end] is inside the window.
//
//summarylint:hot
func wordValueLong(w []byte, i int, key uint64, g rejectGate) (value float64, isGated bool, end int, ok bool) {
	start := i
	_, i, ok = wordRun(w, i)
	plain := i - start
	if !ok || plain == 0 || (plain > 1 && w[start] == '0') {
		return 0, false, i, false
	}
	if w[i] == '.' {
		frac := i + 1
		if _, i, ok = wordRun(w, frac); !ok || i == frac {
			return 0, false, i, false
		}
	}
	if hi, ok := plainBound(w[start:i], plain); ok && g.rejects(key, hi) {
		return 0, true, i, true
	}
	value, ok = parsePlain(w[start:i])
	return value, false, i, ok
}

// parsePlain is strconv.ParseFloat on a plain token, which it refuses only
// past float64's range.
//
//summarylint:hot
func parsePlain(tok []byte) (float64, bool) {
	v, err := strconv.ParseFloat(bytesView(tok), 64)
	return v, err == nil
}

// lexCSVLine is the CSV window lexer. It takes a line of w that reads
//
//	<uint>[,<value>]            or, when multi,
//	<uint>,<int>,<value>
//
// with blanks allowed around every field and "\n" after: a lexUint key, a
// lexInt instance, and as value the bytes up to the next blank, comma or
// newline, if g rejects the pair on plainBound's bound for them or else
// strconv.ParseFloat takes them without error. Those are the fields the
// second tier cuts and trims out of the same line, and the parsers it
// gives them to, so both read it alike. n is the length of the line with
// its newline, 0 for a line left to the second tier: a header, a key
// strconv.ParseUint must judge ("007", twenty digits), extra columns, a
// value that does not parse, a line that is not whole in w. What f holds
// then, the gate's verdict on a token the window cut short included, does
// not count. A line lexWords takes is read a word at a time; the bytes
// below read every other line from its start.
//
//summarylint:hot
func lexCSVLine(w []byte, multi bool, g rejectGate) (f pairFields, n int) {
	if wf, wn := lexWords(w, true, multi, g); wn > 0 {
		return wf, wn
	}
	var ok bool
	i := skipBlank(w, 0)
	if f.key, i, ok = lexUint(w, i); !ok {
		return f, 0
	}
	i = skipBlank(w, i)
	if multi {
		if i >= len(w) || w[i] != ',' {
			return f, 0
		}
		i = skipBlank(w, i+1)
		if f.instance, i, ok = lexInt(w, i); !ok {
			return f, 0
		}
		f.has = hasInstance
		i = skipBlank(w, i)
		if i >= len(w) || w[i] != ',' {
			return f, 0
		}
	}
	if i < len(w) && w[i] == ',' {
		i = skipBlank(w, i+1)
		start := i
		// Digits, then "." and digits, are read first: plain counts the
		// integer digits of a plain token, for the gate.
		i = skipDigits(w, i)
		plain := i - start
		if i < len(w) && w[i] == '.' {
			frac := i + 1
			if i = skipDigits(w, frac); i == frac {
				plain = 0
			}
		}
		end := i
		for i < len(w) && !blank[w[i]] && w[i] != ',' && w[i] != '\n' {
			i++
		}
		if i > end {
			plain = 0
		}
		if hi, ok := plainBound(w[start:i], plain); ok && g.rejects(f.key, hi) {
			f.has |= hasValue | gated
		} else {
			v, err := strconv.ParseFloat(bytesView(w[start:i]), 64)
			if err != nil {
				return f, 0
			}
			f.value = v
			f.has |= hasValue
		}
		i = skipBlank(w, i)
	}
	if i >= len(w) || w[i] != '\n' {
		return f, 0
	}
	return f, i + 1
}

// lexNDJSONLine is the ndjson window lexer. It takes a line of w that reads
//
//	{"key":<uint>[,"instance":<int>][,"value":<number>]}
//
// with "\n" after: these names in this order and case, blanks allowed
// around every token, a lexUint key, a lexInt instance, and a value in the
// JSON number grammar (no leading zeros, "+", ".5", "1.", hex or Inf) that
// g rejects the pair on plainBound's bound for, or else strconv.ParseFloat
// takes without a range error. For such a line encoding/json decodes the
// same fields to the same bits. n is the length of the line with its
// newline, 0 for every other line — valid or not — which encoding/json
// then decodes, or rejects; what f holds then does not count. With eol, w
// is a line lineReader.next cut out, and its end stands for the newline:
// the line that lay across two reads is lexed like its neighbours. A line
// of the window that lexWords takes is read a word at a time; the bytes
// below read every other line from its start.
//
//summarylint:hot
func lexNDJSONLine(w []byte, eol bool, g rejectGate) (f pairFields, n int) {
	if !eol {
		if wf, wn := lexWords(w, false, false, g); wn > 0 {
			return wf, wn
		}
	}
	i := skipBlank(w, 0)
	if i >= len(w) || w[i] != '{' {
		return f, 0
	}
	i = skipBlank(w, i+1)
	if len(w)-i < 5 || string(w[i:i+5]) != `"key"` {
		return f, 0
	}
	if i = lexColon(w, i+5); i < 0 {
		return f, 0
	}
	var ok bool
	if f.key, i, ok = lexUint(w, i); !ok {
		return f, 0
	}
	i = skipBlank(w, i)
	more := i < len(w) && w[i] == ','
	if more {
		i = skipBlank(w, i+1)
	}
	if more && len(w)-i >= 10 && string(w[i:i+10]) == `"instance"` {
		if i = lexColon(w, i+10); i < 0 {
			return f, 0
		}
		if f.instance, i, ok = lexInt(w, i); !ok {
			return f, 0
		}
		f.has = hasInstance
		i = skipBlank(w, i)
		if more = i < len(w) && w[i] == ','; more {
			i = skipBlank(w, i+1)
		}
	}
	if more {
		if len(w)-i < 7 || string(w[i:i+7]) != `"value"` {
			return f, 0
		}
		if i = lexColon(w, i+7); i < 0 {
			return f, 0
		}
		// The end of the number is found by reading it as JSON does; plain
		// counts the integer digits of a token without sign or exponent,
		// for the gate.
		start := i
		if i < len(w) && w[i] == '-' {
			i++
		}
		switch {
		case i < len(w) && w[i] == '0':
			i++
		case i < len(w) && w[i]-'1' <= 8:
			i = skipDigits(w, i+1)
		default:
			return f, 0
		}
		plain := i - start
		if w[start] == '-' {
			plain = 0
		}
		if i < len(w) && w[i] == '.' {
			frac := i + 1
			if i = skipDigits(w, frac); i == frac {
				return f, 0
			}
		}
		if i < len(w) && w[i]|0x20 == 'e' {
			plain = 0
			i++
			if i < len(w) && (w[i] == '+' || w[i] == '-') {
				i++
			}
			exp := i
			if i = skipDigits(w, exp); i == exp {
				return f, 0
			}
		}
		if hi, ok := plainBound(w[start:i], plain); ok && g.rejects(f.key, hi) {
			f.has |= hasValue | gated
		} else {
			v, err := strconv.ParseFloat(bytesView(w[start:i]), 64)
			if err != nil {
				return f, 0
			}
			f.value = v
			f.has |= hasValue
		}
		i = skipBlank(w, i)
	}
	if i >= len(w) || w[i] != '}' {
		return f, 0
	}
	i = skipBlank(w, i+1)
	switch {
	case i < len(w) && w[i] == '\n' && !eol:
		return f, i + 1
	case i == len(w) && eol:
		return f, i
	}
	return f, 0
}

// lexColon consumes the ":" after a member's name at b[i:], with the
// blanks around it, and returns the index of the member's value, or -1.
//
//summarylint:hot
func lexColon(b []byte, i int) int {
	i = skipBlank(b, i)
	if i >= len(b) || b[i] != ':' {
		return -1
	}
	return skipBlank(b, i+1)
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

// batchColumns is the pooled storage of a pairBatch: the pending pairs as
// the engine takes them, and beside each its key — the column the
// repeated-key sets read — the position of the instance whose stream takes
// it, the line it came from, and whether the gate rejected it, which makes
// it a pair to count and not to push.
type batchColumns struct {
	pairs [ingestBatch]engine.Pair
	keys  [ingestBatch]uint64
	pos   [ingestBatch]int
	lines [ingestBatch]int
	skip  [ingestBatch]bool
}

// ingestStream is one instance's in-line stream as an ingest drives it:
// where its pairs go, up to ingestBatch at a time, and how it is drained
// into its summary. A *core.WeightedStream is also its own sampler, whose
// seeds and certain-reject bound feed the window lexers' gate; a
// *core.SetStream is not.
type ingestStream interface {
	PushBatch([]engine.Pair)
	Close() core.Summary
}

// lineShape is what every line of one request's body holds, fixed by its
// route and kind: CSV or ndjson, and either a key and a value — the value
// optional when keysOnly (set ingest, where a key may also repeat) — or,
// with triples (/v1/ingest/multi), a key, an instance and a value.
type lineShape struct {
	csv, keysOnly, triples bool
}

// header reports whether line, the first of a body, is the shape's CSV
// header.
func (s lineShape) header(line []byte) bool {
	if s.triples {
		return s.csv && string(line) == "key,instance,value"
	}
	return s.csv && (string(line) == "key,value" || string(line) == "key")
}

// parse is the shape's second tier: the fields of a line the window lexer
// left, or why the line is not one of the shape's.
func (s lineShape) parse(line []byte, lineNo int) (f pairFields, err error) {
	switch {
	case s.csv && s.triples:
		f.key, f.instance, f.value, err = csvTriple(line, lineNo)
	case s.triples:
		f.key, f.instance, f.value, err = ndjsonTriple(line, lineNo)
	case s.csv:
		f.key, f.value, err = csvPair(line, lineNo, s.keysOnly)
	default:
		f.key, f.value, err = ndjsonPair(line, lineNo, s.keysOnly)
	}
	return f, err
}

// repeated is the error for a pair that repeats a key of its instance.
func (s lineShape) repeated(lineNo int, key uint64, instance int) error {
	if s.triples {
		return fmt.Errorf("server: line %d: key %d repeated for instance %d; ingest needs one value per key per instance (aggregate before posting)", lineNo, key, instance)
	}
	return fmt.Errorf("server: line %d: key %d repeated; weighted ingest needs one value per key (aggregate before posting)", lineNo, key)
}

// pairBatch is the scan's pending batch: pairs lexed and validated but
// not yet checked for repeats or pushed.
type pairBatch struct {
	*batchColumns
	ctx      context.Context // the request's: flush stops a scan nobody waits for
	n        int
	pushed   int64 // pairs handed to a stream, or rejected by the gate, so far
	rejected int64 // of those, rejected by the gate
	shape    lineShape
	ids      []int          // instance IDs by position
	streams  []ingestStream // by position
	seen     []keySet       // the repeated-key set of each position; nil when keys may repeat
	// route sorts the pairs of a batch by position into part, counting and
	// then placing those of position p with at[p]; touched lists the
	// positions a batch holds. Only a scan into more than one stream has
	// them.
	part    []engine.Pair
	at      []int
	touched []int
	// gated, when set, is the one stream's sampler, and gate its bound for
	// the lexers; flush counts the pairs the gate rejected instead of
	// pushing them, and re-reads the bound after every push — a bound read
	// earlier is never below the current one, so it rejects nothing the
	// sampler would keep.
	gated *core.WeightedStream
	gate  rejectGate
}

// add appends one pair, and flushes the batch once it is full. A pair to
// skip fills only the columns the repeated-key check and its error read:
// the gate, the only source of such pairs, gates a scan into one stream,
// whose position needs no column.
//
//summarylint:hot
func (b *pairBatch) add(key uint64, value float64, pos, lineNo int, skip bool) error {
	b.keys[b.n], b.lines[b.n], b.skip[b.n] = key, lineNo, skip
	if !skip {
		b.pairs[b.n], b.pos[b.n] = engine.Pair{Key: dataset.Key(key), Value: value}, pos
	}
	b.n++
	if b.n == ingestBatch {
		return b.flush()
	}
	return nil
}

// flush empties the batch: it checks the pending pairs for repeats, each
// against its position's set, and pushes them, in order — all of them, or
// those before the first repeat, which it then returns as an error. Each
// stream takes its share in one push; a gated pair is counted, not
// pushed. After a batch pushed whole it asks whether the request is still
// wanted, so a cancelled ingest stops within ingestBatch pairs, not at the
// end of its body.
//
//summarylint:hot
func (b *pairBatch) flush() error {
	n := b.n
	b.n = 0
	first := n
	if len(b.seen) == 1 {
		first = b.seen[0].addBatch(b.keys[:n])
	} else if len(b.seen) > 1 {
		for i := range n {
			if b.seen[b.pos[i]].addBatch(b.keys[i:i+1]) == 0 {
				first = i
				break
			}
		}
	}
	if len(b.streams) > 1 {
		b.route(first)
	} else if kept := b.compact(first); b.gated != nil {
		b.rejected += int64(first - kept)
		b.gate.guard = b.gated.TauGuard()
	}
	b.pushed += int64(first)
	if first < n {
		pos := 0
		if len(b.streams) > 1 {
			pos = b.pos[first]
		}
		return b.shape.repeated(b.lines[first], b.keys[first], b.ids[pos])
	}
	if err := b.ctx.Err(); err != nil {
		return fmt.Errorf("server: ingest abandoned: %w", err)
	}
	return nil
}

// compact pushes the first n pairs of the batch, but for those the gate
// rejected, to the one stream and returns how many it pushed: it moves them
// to the front of the batch, in body order, and pushes them at once.
//
//summarylint:hot
func (b *pairBatch) compact(n int) (kept int) {
	for i, skip := range b.skip[:n] {
		if !skip {
			b.pairs[kept] = b.pairs[i]
			kept++
		}
	}
	if kept > 0 {
		b.streams[0].PushBatch(b.pairs[:kept])
	}
	return kept
}

// route pushes the first n pairs of a batch of a scan into more than one
// stream — whose pairs are never gated — to their streams: a stable
// counting sort by position, so each stream takes its share in body order
// and in one push, and a pair costs the same however many streams there
// are.
//
//summarylint:hot
func (b *pairBatch) route(n int) {
	t := 0
	for _, p := range b.pos[:n] {
		if b.at[p] == 0 {
			b.touched[t] = p
			t++
		}
		b.at[p]++
	}
	at := 0
	for _, p := range b.touched[:t] {
		at, b.at[p] = at+b.at[p], at
	}
	for i, p := range b.pos[:n] {
		b.part[b.at[p]] = b.pairs[i]
		b.at[p]++
	}
	start := 0
	for _, p := range b.touched[:t] {
		end := b.at[p]
		b.at[p] = 0
		b.streams[p].PushBatch(b.part[start:end])
		start = end
	}
}

// end is how a scan returns, whatever ended it: it flushes the batch, and
// what flush reports — a repeat, or that nobody waits for the answer —
// wins over err. So a repeat on an earlier line beats a malformed later
// one and every pair before the line that failed has been pushed, as if
// each line had been checked and pushed on its own.
func (b *pairBatch) end(err error) (pairs, rejected int64, _ error) {
	if sooner := b.flush(); sooner != nil {
		err = sooner
	}
	return b.pushed, b.rejected, err
}

// scanIngest streams a CSV or ndjson body whose lines are of the given
// shape into streams, the stream of instance ids[i] at streams[i], and
// returns the number of pairs consumed and how many of them the gate
// rejected. Values must be nonnegative and finite. Without triples every
// pair goes to the one stream; with them a line's instance must be one of
// ids, and index maps it to its position. Each stream takes its pairs in
// body order, up to ingestBatch at a time; the slice is only valid during
// the call. Once ctx is done the scan ends with the batch it is on.
//
// The instances×keys model assigns one value per key per instance, and
// the samplers rely on it (a repeated key corrupts bottom-k heap state).
// Unless keysOnly (set sampling, where a repeated member is harmless), the
// scan therefore rejects a body that repeats a key for an instance —
// producers must aggregate before ingesting. The check is exact: a keySet
// per instance, one probe per pair, and 16 to 32 bytes of table per
// distinct key for the length of the request, which maxIngestBody bounds.
//
// A lone stream that is a sampler is gated: a pair the window lexer
// proves it rejects (rejectGate) is checked for repeats and counted like
// any other, but its value is not parsed and the pair is not pushed. What
// the stream samples, and every count and error, are what pushing every
// pair would give.
func scanIngest(ctx context.Context, body io.Reader, shape lineShape, streams []ingestStream, ids []int, index map[int]int) (pairs, rejected int64, err error) {
	in := newLineReader(body)
	defer in.release()
	b := pairBatch{batchColumns: &in.sb.batch, ctx: ctx, shape: shape, ids: ids, streams: streams}
	if !shape.keysOnly {
		b.seen = make([]keySet, len(streams))
		for i := range b.seen {
			b.seen[i] = newKeySet()
		}
		defer func() {
			for i := range b.seen {
				b.seen[i].release()
			}
		}()
	}
	if len(streams) > 1 {
		cols := make([]int, len(streams)+min(len(streams), ingestBatch))
		b.at, b.touched, b.part = cols[:len(streams)], cols[len(streams):], make([]engine.Pair, ingestBatch)
	} else if st, ok := streams[0].(*core.WeightedStream); ok {
		b.gated, b.gate = st, rejectGate{seed: st.Seeder(), guard: st.TauGuard()}
	}
	want := uint8(hasValue) // what a line the window lexer takes must hold
	if shape.triples {
		want |= hasInstance
	} else if shape.keysOnly {
		want = 0
	}
	for {
		var f pairFields
		var n int
		if shape.csv {
			f, n = lexCSVLine(in.window(), shape.triples, b.gate)
		} else {
			f, n = lexNDJSONLine(in.window(), false, b.gate)
		}
		if n > 0 && f.has&want == want {
			in.advance(n)
		} else {
			// Nothing the lexer read counts: not its gate's verdict on a
			// value token the window cut short, above all.
			line := in.next()
			if line == nil {
				return b.end(in.err())
			}
			if in.lineNo == 1 && shape.header(line) {
				continue
			}
			var err error
			if f, err = shape.parse(line, in.lineNo); err != nil {
				return b.end(err)
			}
		}
		// A gated value is a plain token, so finite and nonnegative.
		if f.has&gated == 0 {
			if err := checkIngestValue(f.value, in.lineNo); err != nil {
				return b.end(err)
			}
		}
		pos := 0
		if shape.triples {
			var listed bool
			if pos, listed = index[f.instance]; !listed {
				return b.end(fmt.Errorf("server: line %d: instance %d not listed in the instances parameter", in.lineNo, f.instance))
			}
		}
		if err := b.add(f.key, f.value, pos, in.lineNo, f.has&gated != 0); err != nil {
			return b.pushed, b.rejected, err
		}
	}
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
	f, n := lexNDJSONLine(line, true, rejectGate{})
	if n == 0 {
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
		// Nothing the lexer read before it gave up on the line counts.
		f = pairFields{key: *rec.Key}
		if rec.Value != nil {
			f.value, f.has = *rec.Value, hasValue
		}
	}
	if f.has&hasValue == 0 && !keysOnly {
		return 0, 0, fmt.Errorf("server: ndjson line %d: weighted ingest needs a value", lineNo)
	}
	return f.key, f.value, nil
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
	f, n := lexNDJSONLine(line, true, rejectGate{})
	if n == 0 {
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
