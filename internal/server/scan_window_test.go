package server

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/xhash"
)

// TestWindowLexerAtRefillEdges puts lines of every kind — ones the window
// lexers take, ones they leave to the second tier, ones that end the scan —
// where the lexers meet the line reader: ending with the 64 KiB buffer, cut
// from their newline or inside "\r\n" or inside their last token by the end
// of a read, last in the body with no newline at all, and under readers
// that hand the body over a byte or half a request at a time. Both scanners
// are held, push for push, to their references; a garbage line at the end
// of every body makes the line numbers on the far side of the edge part of
// what is compared.
func TestWindowLexerAtRefillEdges(t *testing.T) {
	const window = 64 * 1024
	// A probe is one line as each scanner reads it: csv and ndjson for
	// scanPairs, then for scanMultiPairs (instances 0, 7 and -2 are listed).
	probes := map[string][4]string{
		"valid":             {"5,2.5", `{"key":5,"value":2.5}`, "5,7,2.5", `{"key":5,"instance":7,"value":2.5}`},
		"valid, keys only":  {"5", `{"key":5}`, "5,7,2.5", `{"key":5,"instance":7}`},
		"valid, padded":     {" \t5 ,\t2.5 \t", "\t{ \"key\" : 5 , \"value\" : 2.5 } ", " 5 , -2 , 2.5 ", ` {"key": 5, "instance": -2, "value": 2.5}  `},
		"valid, odd space":  {"\u00a05,2.5\u0085", "\u0085{\"key\":5,\"value\":2.5}\u00a0", "\v5,7,2.5\f", "\f{\"key\":5,\"instance\":7,\"value\":2.5}\v"},
		"blank":             {"", "", " \t", "\t "},
		"malformed":         {"{nope,", "{nope,", "{nope,", "{nope,"},
		"trailing junk":     {"5,2.5 x", `{"key":5,"value":2.5} x`, "5,7,2.5,", `{"key":5,"instance":7,"value":2.5}}`},
		"negative value":    {"5,-1", `{"key":5,"value":-1}`, "5,7,-1", `{"key":5,"instance":7,"value":-1}`},
		"minus zero":        {"5,-0", `{"key":5,"value":-0}`, "5,7,-0", `{"key":5,"instance":-0,"value":-0.0}`},
		"range error":       {"5,1e999", `{"key":5,"value":1E+400}`, "5,7,1e999", `{"key":5,"instance":7,"value":1E+400}`},
		"leading zeros":     {"007,2.5", `{"key":007,"value":2.5}`, "5,07,2.5", `{"key":5,"instance":7,"value":02.5}`},
		"twenty digits":     {"18446744073709551615,2", `{"key":18446744073709551615,"value":2}`, "18446744073709551615,7,2", `{"key":18446744073709551615,"instance":7,"value":2}`},
		"unlisted instance": {"5,2.5", `{"key":5,"instance":3,"value":2.5}`, "5,3,2.5", `{"key":5,"instance":3,"value":2.5}`},
		"repeated key":      {"4294967296,1", `{"key":4294967296,"value":1}`, "4294967296,7,1", `{"key":4294967296,"instance":7,"value":1}`},
		// Keys and value tokens around the word path's 8-byte loads, and
		// the forms it leaves to the byte path.
		"key of 8 digits":    {"12345678,2.5", `{"key":12345678,"value":2.5}`, "12345678,7,2.5", `{"key":12345678,"instance":7,"value":2.5}`},
		"key of 16 digits":   {"1234567812345678,2.5", `{"key":1234567812345678,"value":2.5}`, "1234567812345678,7,2.5", `{"key":1234567812345678,"instance":7,"value":2.5}`},
		"key of 19 digits":   {"1234567890123456789,2.5", `{"key":1234567890123456789,"value":2.5}`, "1234567890123456789,7,2.5", `{"key":1234567890123456789,"instance":7,"value":2.5}`},
		"key 0":              {"0,2.5", `{"key":0,"value":2.5}`, "0,7,2.5", `{"key":0,"instance":7,"value":2.5}`},
		"value of 22 digits": {"5,1234567890123456789012", `{"key":5,"value":1234567890123456789012}`, "5,7,1234567890123456789012", `{"key":5,"instance":7,"value":1234567890123456789012}`},
		"value of 23 digits": {"5,12345678901234567890123", `{"key":5,"value":12345678901234567890123}`, "5,7,12345678901234567890123", `{"key":5,"instance":7,"value":12345678901234567890123}`},
		"value 0.5":          {"5,0.5", `{"key":5,"value":0.5}`, "5,7,0.5", `{"key":5,"instance":7,"value":0.5}`},
		"value 1.":           {"5,1.", `{"key":5,"value":1.}`, "5,7,1.", `{"key":5,"instance":7,"value":1.}`},
		"value .5":           {"5,.5", `{"key":5,"value":.5}`, "5,7,.5", `{"key":5,"instance":7,"value":.5}`},
		"value 1e5":          {"5,1e5", `{"key":5,"value":1e5}`, "5,7,1e5", `{"key":5,"instance":7,"value":1e5}`},
		"single blank":       {"5, 2.5", `{"key":5, "value":2.5}`, "5,7 ,2.5", `{"key":5,"instance":7, "value":2.5}`},
	}
	// fill renders valid lines (pairLine's, keys from 2^32 up by step) of
	// exactly size bytes in all; the last one carries a value as long as
	// that takes. A step of 3 keeps key,instance,value lines to instance 7.
	fill := func(format string, multi bool, size int, step uint64) []byte {
		longest := len(pairLine(format, multi, 1<<32+1, "1")) + 1 // instance -2
		var out []byte
		for key := uint64(1 << 32); len(out) < size; key += step {
			value := "1"
			if rest := size - len(out); rest < 2*longest {
				value = strings.Repeat("1", 1+rest-len(pairLine(format, multi, key, "1\n")))
			}
			out = append(out, pairLine(format, multi, key, value)...)
			out = append(out, '\n')
		}
		if len(out) != size {
			t.Fatalf("fill(%s, %v, %d) rendered %d bytes", format, multi, size, len(out))
		}
		return out
	}
	readers := map[string]func([]byte) io.Reader{
		"whole":         wholeReader,
		"one byte":      func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"half":          func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"data with EOF": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
	}
	// check holds the scanners to their references on body(1), and a gated
	// scan to the ungated one — for triples on body(3), whose lines before
	// the probe are all of the one instance listed.
	check := func(t *testing.T, format string, multi bool, body func(step uint64) []byte, reader func([]byte) io.Reader) {
		t.Helper()
		if multi {
			diffScanMultiPairsAs(t, format, body(1), reader, "refill edge")
			diffGatedMultiScan(t, format, body(3), reader, "refill edge")
		} else {
			diffScanPairsAs(t, format, body(1), reader, "refill edge")
			diffGatedScan(t, format, body(1), reader, "refill edge")
		}
	}
	// The gated leg: a plain value cut by the end of the first read after
	// each of its bytes. Cut after "1", "13" or "137", the window holds a
	// plain token whose bound is below 1379.5, and the key is one a PPS
	// sample at tau 2000 keeps with the whole value but the gate rejects on
	// those bounds: a verdict on the cut token that outlived the line's
	// handover to the second tier would drop it. The triples' key is one
	// of instance 7, the one their gated leg lists.
	gatedKey := func(key uint64, step uint64) uint64 {
		for seed := (xhash.Seeder{Salt: gatedSalt}).Instance(0); ; key += step {
			if u := seed.Seed(key); u > 0.2 && u < 0.6 {
				return key
			}
		}
	}
	for _, multi := range []bool{false, true} {
		key, step, diff, leg := gatedKey(1<<33, 1), uint64(1), diffGatedScan, "gated"
		if multi {
			key, step, diff, leg = gatedKey(1<<33+2, 3), 3, diffGatedMultiScan, "gated triples"
		}
		for _, format := range []string{"csv", "ndjson"} {
			line := pairLine(format, multi, key, "1379.5")
			start := strings.Index(line, "1379.5")
			rest := "\n" + pairLine(format, multi, 10+step, "1") + "\ngarbage\n"
			for cut := start; cut <= start+len("1379.5"); cut++ {
				body := append(fill(format, multi, window-cut, step), line+rest...)
				t.Run(fmt.Sprintf("%s/%s/cut=%q", leg, format, line[start:cut]), func(t *testing.T) {
					if diff(t, format, body, wholeReader, "value cut by the window") == 0 {
						t.Fatal("the gate rejected nothing: the leg tests nothing")
					}
				})
			}
		}
	}
	for name, probe := range probes {
		for i, line := range probe {
			format, multi := []string{"csv", "ndjson"}[i%2], i >= 2
			at := fmt.Sprintf("%s/%s/multi=%v", name, format, multi)
			// Two more valid lines, then the line whose number is compared.
			rest := pairLine(format, multi, 11, "1") + "\n" + pairLine(format, multi, 12, "1") + "\ngarbage\n"
			// The first read fills the buffer. The probe's terminator ends
			// over bytes past the buffer's end: 0 puts the newline last in
			// the window, 1 first in the next read (or between "\r" and
			// "\n"), and more cuts into the line itself.
			for _, term := range []string{"\n", "\r\n"} {
				for over := 0; over <= 3; over++ {
					lead := window + over - len(line) - len(term)
					body := func(step uint64) []byte {
						return append(append(fill(format, multi, lead, step), line+term...), rest...)
					}
					t.Run(fmt.Sprintf("%s/%q/over=%d", at, term, over), func(t *testing.T) {
						check(t, format, multi, body, readers["whole"])
					})
				}
			}
			// Last in the body with no newline, ending with the buffer, one
			// byte short of it, and one byte into the next read.
			for over := -1; over <= 1; over++ {
				body := func(step uint64) []byte { return append(fill(format, multi, window+over-len(line), step), line...) }
				t.Run(fmt.Sprintf("%s/unterminated/over=%d", at, over), func(t *testing.T) {
					check(t, format, multi, body, readers["whole"])
				})
			}
			// Readers that end a read anywhere: a short body will do.
			short := func(step uint64) []byte {
				return append(append(fill(format, multi, 3*len(pairLine(format, multi, 1<<32, "1"))+3, step), line+"\r\n"...), rest...)
			}
			unterminated := func(step uint64) []byte { // ends in a valid line
				b := short(step)
				return b[:len(b)-len("\ngarbage\n")]
			}
			for readerName, reader := range readers {
				t.Run(at+"/"+readerName, func(t *testing.T) {
					check(t, format, multi, short, reader)
					check(t, format, multi, unterminated, reader)
				})
			}
		}
	}
}
