package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/xhash"
)

// scanBody renders n pairs with distinct keys (an affine walk over 2^40)
// and two-decimal values, one per line, in the given ingest format — the
// shape bench/summaryload's ingest_raw workload posts — or, as
// "ndjson-spaced", in ndjson with the separators Python's json.dumps
// writes.
func scanBody(format string, n int) []byte {
	name, sep, end := `{"key":`, `,"value":`, "}\n"
	switch format {
	case "csv":
		name, sep, end = "", ",", "\n"
	case "ndjson-spaced":
		name, sep = `{"key": `, `, "value": `
	}
	out := make([]byte, 0, n*40)
	for i := 0; i < n; i++ {
		key := (uint64(i)*0x9e3779b97f + 0x5bd1e995) & (1<<40 - 1)
		value := float64(100+i%99991) / 100
		out = append(out, name...)
		out = strconv.AppendUint(out, key, 10)
		out = append(out, sep...)
		out = strconv.AppendFloat(out, value, 'f', 2, 64)
		out = append(out, end...)
	}
	return out
}

// pushFunc is an ingestStream that hands every batch to a function and
// drains into no summary.
type pushFunc func([]engine.Pair)

func (f pushFunc) PushBatch(ps []engine.Pair) { f(ps) }
func (pushFunc) Close() core.Summary          { return nil }

// scanPairs is scanIngest over a key,value body into push, with no
// sampler to gate for: every value is parsed and every pair pushed, as for
// a set ingest.
func scanPairs(ctx context.Context, body io.Reader, format string, keysOnly bool, push func([]engine.Pair)) (int64, error) {
	pairs, _, err := scanIngest(ctx, body, lineShape{csv: format == "csv", keysOnly: keysOnly}, []ingestStream{pushFunc(push)}, []int{0}, nil)
	return pairs, err
}

// scanMultiPairs is scanIngest over a key,instance,value body that lists
// the instances ids: push receives every batch of the stream at position
// i as push(i, batch).
func scanMultiPairs(ctx context.Context, body io.Reader, format string, ids []int, push func(int, []engine.Pair)) (int64, error) {
	streams, index := make([]ingestStream, len(ids)), make(map[int]int, len(ids))
	for i, id := range ids {
		streams[i] = pushFunc(func(ps []engine.Pair) { push(i, ps) })
		index[id] = i
	}
	pairs, _, err := scanIngest(ctx, body, lineShape{csv: format == "csv", triples: true}, streams, ids, index)
	return pairs, err
}

// TestPlainBound: the bound of a plain value token is exact and at least
// what strconv.ParseFloat makes of the token — equal where the token
// rounds up to it — for the edge tokens and for random ones of up to 22
// integer digits, and there is none past 22. The window lexers gate a pair
// on it exactly when the key's seed reaches guard·hi, and never for a
// token that is not plain.
func TestPlainBound(t *testing.T) {
	intDigits := func(tok string) int { return strings.IndexByte(tok+".", '.') }
	for _, c := range []struct {
		tok string
		hi  float64
	}{
		{"0", 1}, {"0.00", 1}, {"9.995", 10}, {"1.0", 2}, {"7", 8}, {"123.456", 200},
		{"1000000000000000000000", 2e21}, {"9999999999999999999999", 1e22},
		{"99999999999999999999.99", 1e20}, // rounds to its bound
		{"9999999999999999999999.9999999999", 1e22},
	} {
		hi, ok := plainBound([]byte(c.tok), intDigits(c.tok))
		v, err := strconv.ParseFloat(c.tok, 64)
		if !ok || hi != c.hi || err != nil || v > hi {
			t.Errorf("%s: bound %v (%v), want %v; ParseFloat %v (%v)", c.tok, hi, ok, c.hi, v, err)
		}
	}
	if hi, ok := plainBound([]byte(strings.Repeat("9", 23)), 23); ok {
		t.Errorf("23 digits bounded by %v: past plainDigits there is no exact bound", hi)
	}
	rng := rand.New(rand.NewPCG(31, 22))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = '0' + byte(rng.IntN(10))
		}
		return string(b)
	}
	for i := 0; i < 200_000; i++ {
		tok := digits(1 + rng.IntN(plainDigits))
		if rng.IntN(2) == 0 {
			tok += "." + digits(1+rng.IntN(30))
		}
		hi, ok := plainBound([]byte(tok), intDigits(tok))
		if v, err := strconv.ParseFloat(tok, 64); !ok || err != nil || !(v <= hi) {
			t.Fatalf("%s: ParseFloat %v (%v), bound %v (%v)", tok, v, err, hi, ok)
		}
	}

	const key = 5
	seeder := xhash.Seeder{Salt: 7}.Instance(0)
	u := seeder.Seed(key)
	lexers := map[string]func(tok string, g rejectGate) (pairFields, int){
		"csv": func(tok string, g rejectGate) (pairFields, int) {
			return lexCSVLine([]byte(fmt.Sprintf("%d,%s\n", key, tok)), false, g)
		},
		"ndjson": func(tok string, g rejectGate) (pairFields, int) {
			return lexNDJSONLine([]byte(fmt.Sprintf(`{"key":%d,"value":%s}`+"\n", key, tok)), false, g)
		},
	}
	for format, lex := range lexers {
		for _, tok := range []string{"0", "0.00", "9.995", "1.0", "7", "123.456", "99999999999999999999.99"} {
			hi, _ := plainBound([]byte(tok), intDigits(tok))
			v, _ := strconv.ParseFloat(tok, 64)
			// Guards that put guard·hi just below, at and just above the seed.
			for _, guard := range []float64{u / hi * (1 - 1e-12), u / hi, u / hi * (1 + 1e-12), math.NaN()} {
				f, n := lex(tok, rejectGate{seed: seeder, guard: guard})
				want := u >= guard*hi
				if n == 0 || (f.has&gated != 0) != want || (!want && f.value != v) {
					t.Errorf("%s %s, guard·hi %v, seed %v: fields %+v, n %d; want gated %v", format, tok, guard*hi, u, f, n, want)
				}
			}
		}
		// Not plain, so never gated, however small the guard.
		for _, tok := range []string{"1e3", "-0", "-1.5", "1E-2", "99999999999999999999999", "0.5e1"} {
			if f, n := lex(tok, rejectGate{seed: seeder, guard: 1e-300}); n > 0 && f.has&gated != 0 {
				t.Errorf("%s %s: gated a token that is not plain", format, tok)
			}
		}
	}
	for _, tok := range []string{"1.", ".5", "+1", "1_0", "0x1p3"} {
		if f, n := lexers["csv"](tok, rejectGate{seed: seeder, guard: 1e-300}); n > 0 && f.has&gated != 0 {
			t.Errorf("csv %s: gated a token that is not plain", tok)
		}
	}
}

// TestScanPairsAllocsIndependentOfPairs pins the scanners' zero
// allocations per pair: a body a hundred times larger may cost only the
// few more tables its repeated-key set grows through before it reaches
// the recycled sizes, never a term in its pairs.
func TestScanPairsAllocsIndependentOfPairs(t *testing.T) {
	const small, large = 1000, 100_000
	// 1000 keys end in a 2048-slot table; past 4096 slots (2048 keys) a set
	// takes its tables from keyTables, which after the warm-up run holds the
	// 2^18-slot one that 100 000 keys need.
	const extraTables = 12 - 11
	for _, format := range []string{"ndjson", "csv"} {
		allocs := func(n int) float64 {
			body := scanBody(format, n)
			rd := bytes.NewReader(body)
			return testing.AllocsPerRun(5, func() {
				rd.Reset(body)
				got, err := scanPairs(context.Background(), rd, format, false, func([]engine.Pair) {})
				if err != nil || got != int64(n) {
					t.Fatalf("%s: scanned %d of %d pairs: %v", format, got, n, err)
				}
			})
		}
		few, many := allocs(small), allocs(large)
		// A GC during the runs empties the scan-buffer pool (one new buffer,
		// one new pool node) and lets the runtime allocate on its own
		// account; allow that much slack.
		const slack = 4
		if many > few+extraTables+slack {
			t.Errorf("%s: %v allocs for %d pairs, %v for %d: want at most %d more (table growth only)",
				format, few, small, many, large, extraTables+slack)
		}
	}
}

// BenchmarkScanPairs measures the scan layer alone on one ingest_raw-sized
// body: lines → fields → numbers → repeated-key check → push. ndjson-spaced
// is the ndjson body with blanks after its separators: the lexer's
// whitespace-tolerant branches.
func BenchmarkScanPairs(b *testing.B) {
	const pairs = 100_000
	for _, shape := range []string{"ndjson", "csv", "ndjson-spaced"} {
		b.Run(shape, func(b *testing.B) {
			format, _, _ := strings.Cut(shape, "-")
			body := scanBody(shape, pairs)
			rd := bytes.NewReader(body)
			var sum float64
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				n, err := scanPairs(context.Background(), rd, format, false, func(ps []engine.Pair) {
					for _, p := range ps {
						sum += p.Value
					}
				})
				if err != nil || n != pairs {
					b.Fatalf("scanned %d of %d pairs: %v", n, pairs, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
		})
	}
}

// TestScanErrorOrderAtBatchEdges places each way a scan can fail on the
// lines around the batch edges — first line, last of a batch, first of the
// next, deep in the stream, last line — and holds both scanners to their
// pair-at-a-time references: what fails and with which text, how many
// pairs count, and exactly which pushes were made before. The batch may
// only be visible as speed: an error never overtakes a repeat on an
// earlier line, and never hides a pair parsed before it.
func TestScanErrorOrderAtBatchEdges(t *testing.T) {
	const lines = 2*ingestBatch + 88 // 600: two full batches and a partial one
	type body struct {
		format string
		multi  bool
		lines  []string
	}
	line := func(b body, key uint64, value string) string { return pairLine(b.format, b.multi, key, value) }
	keyOf := func(i int) uint64 { return uint64(i) * 7 } // of the valid line i; its value is i
	valid := func(format string, multi bool) body {
		b := body{format: format, multi: multi, lines: make([]string, lines+1)} // 1-based
		for i := 1; i <= lines; i++ {
			b.lines[i] = line(b, keyOf(i), strconv.Itoa(i))
		}
		return b
	}
	// Each failure rewrites line at of a valid body, or reports that it
	// cannot be placed there.
	failures := map[string]func(b body, at int) bool{
		"malformed line": func(b body, at int) bool {
			b.lines[at] = "{nope,"
			return true
		},
		"negative value": func(b body, at int) bool {
			b.lines[at] = line(b, keyOf(at), "-1")
			return true
		},
		"unlisted instance": func(b body, at int) bool {
			b.lines[at] = strings.NewReplacer(",7,", ",3,", `"instance":7`, `"instance":3`).Replace(line(b, 1, "1"))
			return b.multi
		},
		"repeat of an earlier batch's key": func(b body, at int) bool {
			if at <= ingestBatch {
				return false
			}
			b.lines[at] = line(b, keyOf(at-ingestBatch), "1")
			return true
		},
		"repeat inside the batch": func(b body, at int) bool {
			if (at-1)%ingestBatch == 0 {
				return false // first of its batch: nothing before it in there
			}
			b.lines[at] = line(b, keyOf(at-1), "1")
			return true
		},
		"repeat, then garbage ten lines on": func(b body, at int) bool {
			if at < 2 || at+10 > lines {
				return false
			}
			b.lines[at] = line(b, keyOf(at-1), "1")
			b.lines[at+10] = "garbage"
			return true
		},
		"garbage, then a repeat ten lines on": func(b body, at int) bool {
			if at+10 > lines {
				return false
			}
			b.lines[at] = "garbage"
			b.lines[at+10] = line(b, keyOf(at+9), "1")
			return true
		},
		"key 0 twice": func(b body, at int) bool {
			if at < 2 {
				return false
			}
			b.lines[1], b.lines[at] = line(b, 0, "1"), line(b, 0, "2")
			return true
		},
	}
	for name, place := range failures {
		for _, at := range []int{1, 10, ingestBatch - 1, ingestBatch, ingestBatch + 1, 2 * ingestBatch, 2*ingestBatch + 1, lines} {
			for _, format := range []string{"csv", "ndjson"} {
				for _, multi := range []bool{false, true} {
					b := valid(format, multi)
					if !place(b, at) {
						continue
					}
					text := []byte(strings.Join(b.lines[1:], "\n")) // no final newline
					t.Run(fmt.Sprintf("%s/line %d/%s/multi=%v", name, at, format, multi), func(t *testing.T) {
						if multi {
							diffScanMultiPairs(t, 0, text)
						} else {
							diffScanPairs(t, 0, text)
						}
					})
				}
			}
		}
	}
}

// TestLineReaderMatchesScanner holds lineReader to the bufio.Scanner it
// replaced, over readers that return their bytes every way a body can
// arrive: one at a time, in odd-sized pieces, with the last bytes and the
// error in one call or two, cut short by an error, stalling with empty
// reads. Same lines with the same numbers, same final error — but for the
// one difference meant: where the body cap cuts a line, the Scanner hands
// on what is left of it as the last line, and lineReader does not.
func TestLineReaderMatchesScanner(t *testing.T) {
	long := func(n int) string { return strings.Repeat("7", n) }
	bodies := map[string]string{
		"empty":                  "",
		"one newline":            "\n",
		"plain":                  "1,2\n3,4\n",
		"no final newline":       "1,2\n3,4",
		"crlf":                   "1,2\r\n3,4\r\n",
		"lone cr":                "1,2\r\r\n\r3,4\r",
		"blank lines":            "\n\n 1,2 \n\t\n\n3,4\n\n",
		"unicode space":          " 1,2 \n \n",
		"64 KiB line":            "1," + long(64*1024-3) + "\n2,3\n",
		"line over 64 KiB":       "1,2\n1," + long(64*1024) + "\n2,3\n",
		"line of 300 KiB":        "1," + long(300*1024) + "\n2,3",
		"longest line":           "1,2\n" + long(maxIngestLine-1) + "\n3,4\n",
		"longest line, last":     "1,2\n" + long(maxIngestLine-1),
		"line one over":          "1,2\n" + long(maxIngestLine) + "\n3,4\n",
		"line one over, last":    "1,2\n" + long(maxIngestLine),
		"line far over":          long(3*maxIngestLine) + "\n1,2\n",
		"many short lines":       strings.Repeat("9,9\n", 40_000),
		"short lines, long last": strings.Repeat("9,9\n", 20_000) + long(100_000),
	}
	errCut := errors.New("cut")
	readers := map[string]func(body string) io.Reader{
		"whole":         func(body string) io.Reader { return strings.NewReader(body) },
		"one byte":      func(body string) io.Reader { return iotest.OneByteReader(strings.NewReader(body)) },
		"half":          func(body string) io.Reader { return iotest.HalfReader(strings.NewReader(body)) },
		"data with EOF": func(body string) io.Reader { return iotest.DataErrReader(strings.NewReader(body)) },
		"timeout":       func(body string) io.Reader { return iotest.TimeoutReader(strings.NewReader(body)) },
		"error at end":  func(body string) io.Reader { return io.MultiReader(strings.NewReader(body), iotest.ErrReader(errCut)) },
		"cut mid-line": func(body string) io.Reader {
			return io.MultiReader(strings.NewReader(body[:len(body)*2/3]), iotest.ErrReader(errCut))
		},
		"max bytes": func(body string) io.Reader {
			return http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), int64(len(body)/2))
		},
		"odd pieces": func(body string) io.Reader {
			return &pieceReader{r: strings.NewReader(body), sizes: []int{1, 7, 0, 4093, 0, 0, 70_000, 3}}
		},
		"stalled": func(body string) io.Reader {
			return &pieceReader{r: strings.NewReader(body), sizes: []int{5, 0}, stallAfter: 3}
		},
	}
	type numbered struct {
		no   int
		line string
	}
	for bodyName, body := range bodies {
		for readerName, reader := range readers {
			if readerName == "one byte" && len(body) > 1<<20 {
				continue // a million reads of one byte prove nothing the 64 KiB bodies don't
			}
			t.Run(bodyName+"/"+readerName, func(t *testing.T) {
				var want []numbered
				sc := bufio.NewScanner(reader(body))
				sc.Buffer(make([]byte, 64*1024), maxIngestLine)
				for no := 1; sc.Scan(); no++ {
					if line := strings.TrimSpace(sc.Text()); line != "" {
						want = append(want, numbered{no, line})
					}
				}
				var tooLarge *http.MaxBytesError
				if errors.As(sc.Err(), &tooLarge) {
					cut := body[:len(body)/2]
					if rest := strings.TrimSpace(cut[strings.LastIndexByte(cut, '\n')+1:]); rest != "" {
						if last := want[len(want)-1]; last.line != rest {
							t.Fatalf("bufio.Scanner ended on %.40q, not on the cut line %.40q", last.line, rest)
						}
						want = want[:len(want)-1]
					}
				}
				in := newLineReader(reader(body))
				defer in.release()
				var got []numbered
				for line := in.next(); line != nil; line = in.next() {
					got = append(got, numbered{in.lineNo, string(line)})
				}
				if len(got) != len(want) {
					t.Fatalf("%d lines, bufio.Scanner %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("line %d: got number %d, %d bytes %.40q; bufio.Scanner number %d, %d bytes %.40q",
							i, got[i].no, len(got[i].line), got[i].line, want[i].no, len(want[i].line), want[i].line)
					}
				}
				wantErr := ""
				if err := sc.Err(); err != nil {
					wantErr = fmt.Sprintf("server: reading pair stream: %v", err)
				}
				gotErr := ""
				if err := in.err(); err != nil {
					gotErr = err.Error()
				}
				if gotErr != wantErr {
					t.Fatalf("error %q, bufio.Scanner's %q", gotErr, wantErr)
				}
			})
		}
	}
}

// pieceReader returns its reader's bytes in pieces of the given sizes, in
// rotation — a size of 0 is a read of no bytes and no error. After
// stallAfter pieces (when set) it only ever returns that.
type pieceReader struct {
	r          io.Reader
	sizes      []int
	stallAfter int
	reads      int
}

func (p *pieceReader) Read(b []byte) (int, error) {
	size := p.sizes[p.reads%len(p.sizes)]
	p.reads++
	if p.stallAfter > 0 && p.reads > p.stallAfter {
		return 0, nil
	}
	return p.r.Read(b[:min(size, len(b))])
}

// TestWordHelpers holds the word path's digit counting and conversion to
// the bytes they stand for: every byte value after every count of leading
// digits, and random digit runs, against strconv.
func TestWordHelpers(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	word := make([]byte, 8)
	for lead := 0; lead <= 8; lead++ {
		for next := 0; next < 256; next++ {
			for i := range word {
				word[i] = byte(rng.UintN(256))
				if i < lead {
					word[i] = '0' + byte(rng.UintN(10))
				}
			}
			if lead < 8 {
				word[lead] = byte(next)
			}
			want := lead
			if lead < 8 && next >= '0' && next <= '9' {
				continue // the run is longer: another lead's case
			}
			x := load8(word, 0)
			if got := leadingDigits(x); got != want {
				t.Fatalf("leadingDigits(%q) = %d, want %d", word, got, want)
			}
			for n := 0; n <= lead; n++ {
				v, _ := strconv.ParseUint("0"+string(word[:n]), 10, 64)
				if got := digitsValue(x, n); got != v {
					t.Fatalf("digitsValue(%q, %d) = %d, want %d", word, n, got, v)
				}
			}
		}
	}
}
