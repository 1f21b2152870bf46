package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sampling"
)

// The reference scanners: the scanPairs and scanMultiPairs that shipped
// before the byte-level rewrite, verbatim — every line goes through
// strings.SplitN + strconv or encoding/json, and the repeated-key check
// is a Go map. They define which bytes are accepted, what is pushed and
// what each error says; FuzzScanPairsDiff and FuzzScanMultiPairsDiff hold
// the production scanners to them.

// refLineBuf is the reference scanners' initial line buffer: one for all
// calls (the tests that use them run one scan at a time), because a fresh
// 64 KiB per scan was most of what the differential tests spent.
var refLineBuf = make([]byte, 64*1024)

func scanPairsRef(body io.Reader, format string, keysOnly bool, push func(dataset.Key, float64)) (int64, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(refLineBuf, maxIngestLine)
	var pairs int64
	lineNo := 0
	var seen map[uint64]struct{}
	if !keysOnly {
		seen = make(map[uint64]struct{})
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var key uint64
		var value float64
		switch format {
		case "csv":
			if lineNo == 1 && (line == "key,value" || line == "key") {
				continue
			}
			fields := strings.SplitN(line, ",", 3)
			if len(fields) > 2 {
				return pairs, fmt.Errorf("server: csv line %d: expected key,value, got extra columns %q", lineNo, fields[2])
			}
			k, err := strconv.ParseUint(strings.TrimSpace(fields[0]), 10, 64)
			if err != nil {
				return pairs, fmt.Errorf("server: csv line %d: bad key: %w", lineNo, err)
			}
			key = k
			if len(fields) > 1 {
				v, err := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
				if err != nil {
					return pairs, fmt.Errorf("server: csv line %d: bad value: %w", lineNo, err)
				}
				value = v
			} else if !keysOnly {
				return pairs, fmt.Errorf("server: csv line %d: weighted ingest needs key,value", lineNo)
			}
		case "ndjson":
			var rec struct {
				Key   *uint64  `json:"key"`
				Value *float64 `json:"value"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return pairs, fmt.Errorf("server: ndjson line %d: %w", lineNo, err)
			}
			if rec.Key == nil {
				return pairs, fmt.Errorf("server: ndjson line %d: missing key", lineNo)
			}
			key = *rec.Key
			if rec.Value != nil {
				value = *rec.Value
			} else if !keysOnly {
				return pairs, fmt.Errorf("server: ndjson line %d: weighted ingest needs a value", lineNo)
			}
		}
		if err := checkIngestValue(value, lineNo); err != nil {
			return pairs, err
		}
		if seen != nil {
			if _, dup := seen[key]; dup {
				return pairs, fmt.Errorf("server: line %d: key %d repeated; weighted ingest needs one value per key (aggregate before posting)", lineNo, key)
			}
			seen[key] = struct{}{}
		}
		push(dataset.Key(key), value)
		pairs++
	}
	if err := sc.Err(); err != nil {
		return pairs, fmt.Errorf("server: reading pair stream: %w", err)
	}
	return pairs, nil
}

func scanMultiPairsRef(body io.Reader, format string, index map[int]int, push func(i int, h dataset.Key, v float64)) (int64, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(refLineBuf, maxIngestLine)
	var pairs int64
	lineNo := 0
	type pairID struct {
		key      uint64
		instance int
	}
	seen := make(map[pairID]struct{})
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var key uint64
		var instance int
		var value float64
		switch format {
		case "csv":
			if lineNo == 1 && line == "key,instance,value" {
				continue
			}
			fields := strings.SplitN(line, ",", 4)
			if len(fields) != 3 {
				return pairs, fmt.Errorf("server: csv line %d: multi ingest needs key,instance,value", lineNo)
			}
			k, err := strconv.ParseUint(strings.TrimSpace(fields[0]), 10, 64)
			if err != nil {
				return pairs, fmt.Errorf("server: csv line %d: bad key: %w", lineNo, err)
			}
			key = k
			if instance, err = strconv.Atoi(strings.TrimSpace(fields[1])); err != nil {
				return pairs, fmt.Errorf("server: csv line %d: bad instance: %w", lineNo, err)
			}
			if value, err = strconv.ParseFloat(strings.TrimSpace(fields[2]), 64); err != nil {
				return pairs, fmt.Errorf("server: csv line %d: bad value: %w", lineNo, err)
			}
		case "ndjson":
			var rec struct {
				Key      *uint64  `json:"key"`
				Instance *int     `json:"instance"`
				Value    *float64 `json:"value"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return pairs, fmt.Errorf("server: ndjson line %d: %w", lineNo, err)
			}
			if rec.Key == nil || rec.Instance == nil || rec.Value == nil {
				return pairs, fmt.Errorf("server: ndjson line %d: multi ingest needs key, instance, and value", lineNo)
			}
			key, instance, value = *rec.Key, *rec.Instance, *rec.Value
		}
		if err := checkIngestValue(value, lineNo); err != nil {
			return pairs, err
		}
		idx, ok := index[instance]
		if !ok {
			return pairs, fmt.Errorf("server: line %d: instance %d not listed in the instances parameter", lineNo, instance)
		}
		id := pairID{key: key, instance: instance}
		if _, dup := seen[id]; dup {
			return pairs, fmt.Errorf("server: line %d: key %d repeated for instance %d; ingest needs one value per key per instance (aggregate before posting)", lineNo, key, instance)
		}
		seen[id] = struct{}{}
		push(idx, dataset.Key(key), value)
		pairs++
	}
	if err := sc.Err(); err != nil {
		return pairs, fmt.Errorf("server: reading pair stream: %w", err)
	}
	return pairs, nil
}

// pushedPair is one push as the differential tests compare it: the value
// by its bits, so -0 vs 0 or a last-place difference is a divergence.
type pushedPair struct {
	pos  int
	key  uint64
	bits uint64
}

// diffScan fails t unless the two scans pushed the same pairs in the same
// order and returned the same count and error text.
func diffScan(t *testing.T, what string, got, want []pushedPair, n, nRef int64, err, errRef error) {
	t.Helper()
	if n != nRef {
		t.Fatalf("%s: count %d, reference %d (err %v, reference %v)", what, n, nRef, err, errRef)
	}
	if (err == nil) != (errRef == nil) || (err != nil && err.Error() != errRef.Error()) {
		t.Fatalf("%s: error\n  got  %v\n  want %v", what, err, errRef)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d pushes, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: push %d = %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// pairLine renders one line the scanners accept: (key, value) for
// scanPairs, or for scanMultiPairs (key, instance, value) with the
// instance — one of the three the differential tests list — picked by the
// key.
func pairLine(format string, multi bool, key uint64, value string) string {
	instance := []string{"0", "7", "-2"}[key%3]
	switch {
	case format == "csv" && multi:
		return fmt.Sprintf("%d,%s,%s", key, instance, value)
	case format == "csv":
		return fmt.Sprintf("%d,%s", key, value)
	case multi:
		return fmt.Sprintf(`{"key":%d,"instance":%s,"value":%s}`, key, instance, value)
	default:
		return fmt.Sprintf(`{"key":%d,"value":%s}`, key, value)
	}
}

// leadLines renders n valid lines with distinct keys (2^32 and up, out of
// the way of the keys test bodies use) in the given format, for the
// differential tests to put in front of a body: the body's lines then sit
// anywhere in a batch, or in a later batch than lines they repeat.
func leadLines(format string, multi bool, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		b.WriteString(pairLine(format, multi, 1<<32+uint64(i), "1"))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// soloLines is leadLines for key,instance,value lines whose instance is
// 7 alone: pairLine's instance follows the key, and keys 2^32 + 3i all
// give 7.
func soloLines(format string, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		b.WriteString(pairLine(format, true, 1<<32+3*uint64(i), "1"))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// collectPairs is a scanPairs sink that records every push. It also fails
// t if a batch is empty or over ingestBatch: the scanners promise neither.
func collectPairs(t *testing.T, into *[]pushedPair) func([]engine.Pair) {
	return func(ps []engine.Pair) {
		if len(ps) == 0 || len(ps) > ingestBatch {
			t.Errorf("scanPairs pushed a batch of %d pairs", len(ps))
		}
		for _, p := range ps {
			*into = append(*into, pushedPair{key: uint64(p.Key), bits: math.Float64bits(p.Value)})
		}
	}
}

// collectMultiPairs is the same for scanMultiPairs, recording each push
// with the position of the stream it went to.
func collectMultiPairs(t *testing.T, into *[]pushedPair) func(int, []engine.Pair) {
	return func(pos int, ps []engine.Pair) {
		if len(ps) == 0 || len(ps) > ingestBatch {
			t.Errorf("scanMultiPairs pushed a batch of %d pairs", len(ps))
		}
		for _, p := range ps {
			*into = append(*into, pushedPair{pos: pos, key: uint64(p.Key), bits: math.Float64bits(p.Value)})
		}
	}
}

// diffScanPairs holds scanPairs to scanPairsRef on body behind lead valid
// lines, in both formats and both keysOnly settings: same pushes in the
// same order, same count, same error text.
func diffScanPairs(t *testing.T, lead int, body []byte) {
	t.Helper()
	for _, format := range []string{"csv", "ndjson"} {
		whole := append(leadLines(format, false, lead), body...)
		diffScanPairsAs(t, format, whole, wholeReader, fmt.Sprintf("lead=%d", lead))
	}
}

func diffScanMultiPairs(t *testing.T, lead int, body []byte) {
	t.Helper()
	for _, format := range []string{"csv", "ndjson"} {
		whole := append(leadLines(format, true, lead), body...)
		diffScanMultiPairsAs(t, format, whole, wholeReader, fmt.Sprintf("lead=%d", lead))
	}
}

func wholeReader(body []byte) io.Reader { return bytes.NewReader(body) }

// diffScanPairsAs is diffScanPairs on one body in one format, handed to
// both scanners by reader.
func diffScanPairsAs(t *testing.T, format string, body []byte, reader func([]byte) io.Reader, what string) {
	t.Helper()
	for _, keysOnly := range []bool{false, true} {
		var got, want []pushedPair
		n, err := scanPairs(context.Background(), reader(body), format, keysOnly, collectPairs(t, &got))
		nRef, errRef := scanPairsRef(reader(body), format, keysOnly, func(h dataset.Key, v float64) {
			want = append(want, pushedPair{key: uint64(h), bits: math.Float64bits(v)})
		})
		diffScan(t, fmt.Sprintf("scanPairs(%s, keysOnly=%v, %s)", format, keysOnly, what), got, want, n, nRef, err, errRef)
	}
}

// gatedSalt is the salt of the samplers the gated legs scan into.
const gatedSalt = 2011

// gatedSamplers are the samplers the gated legs scan into, each opened
// fresh: Poisson PPS with a threshold that keeps most of the test bodies'
// small values and one that keeps few, and bottom-k of 8 with PPS and EXP
// ranks, which a lead of valid lines fills.
var gatedSamplers = []struct {
	name string
	open func(*core.Summarizer) *core.WeightedStream
}{
	{"pps tau=2", func(s *core.Summarizer) *core.WeightedStream { return s.StreamPPS(engine.Config{}, 0, 2) }},
	{"pps tau=2000", func(s *core.Summarizer) *core.WeightedStream { return s.StreamPPS(engine.Config{}, 0, 2000) }},
	{"bottomk pps", func(s *core.Summarizer) *core.WeightedStream {
		return s.StreamBottomK(engine.Config{}, 0, 8, sampling.PPS{})
	}},
	{"bottomk exp", func(s *core.Summarizer) *core.WeightedStream {
		return s.StreamBottomK(engine.Config{}, 0, 8, sampling.EXP{})
	}},
}

// diffGatedScan scans body, in one format, into each of gatedSamplers
// twice — every value parsed and every pair pushed, then through the gate —
// and fails t unless both leave the same v2 summary bytes, pair count and
// error text. It returns how many pairs the gate
// rejected, over all the samplers.
func diffGatedScan(t *testing.T, format string, body []byte, reader func([]byte) io.Reader, what string) (rejected int64) {
	t.Helper()
	return diffGated(t, fmt.Sprintf("%s, %s", format, what), body, reader, lineShape{csv: format == "csv"}, []int{0}, nil,
		func(r io.Reader, plain *core.WeightedStream) (int64, error) {
			return scanPairs(context.Background(), r, format, false, plain.PushBatch)
		})
}

// diffGatedMultiScan is diffGatedScan for a key,instance,value body, with
// instance 7 alone listed: its one stream is gated, and the scan must
// leave what scanMultiPairsRef's pushes leave, pair by pair.
func diffGatedMultiScan(t *testing.T, format string, body []byte, reader func([]byte) io.Reader, what string) (rejected int64) {
	t.Helper()
	return diffGated(t, fmt.Sprintf("%s triples, %s", format, what), body, reader, lineShape{csv: format == "csv", triples: true}, []int{7}, map[int]int{7: 0},
		func(r io.Reader, plain *core.WeightedStream) (int64, error) {
			return scanMultiPairsRef(r, format, map[int]int{7: 0}, func(_ int, h dataset.Key, v float64) {
				plain.PushBatch([]engine.Pair{{Key: h, Value: v}})
			})
		})
}

// diffGated is the gated legs' comparison: scanIngest of body, in shape,
// into each of gatedSamplers, against ungated into a fresh one of the same.
func diffGated(t *testing.T, what string, body []byte, reader func([]byte) io.Reader, shape lineShape, ids []int, index map[int]int, ungated func(io.Reader, *core.WeightedStream) (int64, error)) (rejected int64) {
	t.Helper()
	summ := core.NewSummarizer(gatedSalt)
	for _, s := range gatedSamplers {
		plain := s.open(summ)
		n, err := ungated(reader(body), plain)
		gated := s.open(summ)
		nGated, r, errGated := scanIngest(context.Background(), reader(body), shape, []ingestStream{gated}, ids, index)
		rejected += r
		at := fmt.Sprintf("gated scan into %s (%s)", s.name, what)
		if nGated != n || fmt.Sprint(errGated) != fmt.Sprint(err) {
			t.Fatalf("%s: %d pairs, error %v; ungated %d pairs, error %v", at, nGated, errGated, n, err)
		}
		got, errG := core.EncodeSummary(gated.Close(), 2)
		want, errW := core.EncodeSummary(plain.Close(), 2)
		if errG != nil || errW != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: summaries differ (encode errors %v, %v):\n  gated   %x\n  ungated %x", at, errG, errW, got, want)
		}
	}
	return rejected
}

// diffScanMultiPairsAs is the same for scanMultiPairs, with instances 0, 7
// and -2 listed. Each stream must get the same pushes in the same order;
// how the streams' pushes interleave is not compared.
func diffScanMultiPairsAs(t *testing.T, format string, body []byte, reader func([]byte) io.Reader, what string) {
	t.Helper()
	ids, index := []int{0, 7, -2}, map[int]int{0: 0, 7: 1, -2: 2}
	var got, want []pushedPair
	n, err := scanMultiPairs(context.Background(), reader(body), format, ids, collectMultiPairs(t, &got))
	nRef, errRef := scanMultiPairsRef(reader(body), format, index, func(i int, h dataset.Key, v float64) {
		want = append(want, pushedPair{pos: i, key: uint64(h), bits: math.Float64bits(v)})
	})
	byStream := func(a, b pushedPair) int { return a.pos - b.pos }
	slices.SortStableFunc(got, byStream)
	slices.SortStableFunc(want, byStream)
	diffScan(t, fmt.Sprintf("scanMultiPairs(%s, %s)", format, what), got, want, n, nRef, err, errRef)
}

// scanDiffSeeds are the lines on which a fast path that is merely
// plausible parts ways with encoding/json or strconv. Every body runs
// under both formats (and, for scanPairs, both keysOnly settings), so a
// CSV seed is also an ndjson rejection case and the other way round.
var scanDiffSeeds = []string{
	// The shapes the fast paths take.
	"{\"key\":1,\"value\":2}\n{\"key\":2,\"value\":0.25}\n",
	"{\"key\":1,\"instance\":0,\"value\":2}\n{\"key\":1,\"instance\":7,\"value\":3}\n",
	"{ \"key\" : 1 ,\t\"instance\" : -2 , \"value\" : 2e3 }\r\n",
	"{\"key\":1}\n{\"key\":2}\n",
	"{\"key\":1,\"instance\":7}\n",
	"key,value\n1,2\n3,4.5\n",
	"key\n1\n2\n",
	"key,instance,value\n1,0,2\n1,7,3\n2,-2,1e-3\n",
	// JSON number grammar against strconv's more generous one.
	`{"key":01,"value":2}`,
	`{"key":1,"value":02}`,
	`{"key":1,"value":.5}`,
	`{"key":1,"value":1.}`,
	`{"key":1,"value":+1}`,
	`{"key":1,"value":-0}`,
	`{"key":1,"value":-0.0e-0}`,
	`{"key":1,"value":1e999}`,
	`{"key":1,"value":1E+2}`,
	`{"key":1,"value":1e}`,
	`{"key":1,"value":0x10}`,
	`{"key":1,"value":Inf}`,
	`{"key":1,"value":NaN}`,
	`{"key":1,"value":1_0}`,
	`{"key":1,"value":-1}`,
	`{"key":1,"value":4.9e-324}`,
	`{"key":1,"value":0.1000000000000000055511151231257827021181583404541015625}`,
	// Keys and instances that are numbers but not of the field's type.
	`{"key":1.0,"value":2}`,
	`{"key":1e0,"value":2}`,
	`{"key":-1,"value":2}`,
	`{"key":-0,"value":2}`,
	`{"key":18446744073709551615,"value":2}`,
	`{"key":18446744073709551616,"value":2}`,
	`{"key":9999999999999999999,"value":2}`,
	`{"key":00000000000000000001,"value":2}`,
	`{"key":1,"instance":-0,"value":2}`,
	`{"key":1,"instance":1e99,"value":2}`,
	`{"key":1,"instance":0.0,"value":2}`,
	`{"key":1,"instance":9223372036854775807,"value":2}`,
	`{"key":1,"instance":-9223372036854775808,"value":2}`,
	`{"key":1,"instance":9223372036854775808,"value":2}`,
	`{"key":1,"instance":"0","value":2}`,
	`{"key":1,"instance":3,"value":2}`,
	// Field matching: case folding, order, duplicates, unknowns, null.
	`{"Key":1,"VALUE":2}`,
	`{"value":2,"key":1}`,
	`{"key":1,"value":2,"instance":0}`,
	`{"key":1,"key":2,"value":3}`,
	`{"key":1,"value":2,"value":3}`,
	`{"key":1,"value":2,"extra":[1,{"a":null}]}`,
	`{"key":1,"value":null}`,
	`{"key":null,"value":3}`,
	`{"key":1,"instance":null,"value":2}`,
	`{"key":"1","value":2}`,
	`{"k\u0065y":1,"value":2}`,
	`{"value":2}`,
	`{}`,
	// Syntax: what may follow the object, and what is not one.
	`{"key":1,"value":2}}`,
	`{"key":1,"value":2} x`,
	`{"key":1,"value":2}{"key":2,"value":3}`,
	`{"key":1,"value":2,}`,
	`{"key":1,,"value":2}`,
	`{"key":1 "value":2}`,
	`{"key":1,"value":2`,
	`{"key":,"value":2}`,
	`{"key":1,"value":}`,
	`{"key" 1}`,
	`[1,2]`,
	`null`,
	"{\"key\":1,\v\"value\":2}",
	"\ufeff{\"key\":1,\"value\":2}",
	// CSV fields against strconv.
	"1,inf\n",
	"1,+Inf\n",
	"1,NaN\n",
	"1,0x1p3\n",
	"1,1_000\n",
	"1,-0\n",
	"1,-1\n",
	"1,1e999\n",
	"1,\n",
	",1\n",
	",\n",
	"+1,2\n",
	"-1,2\n",
	"0x1,2\n",
	"1_0,2\n",
	"007,2\n",
	"18446744073709551615,1e308\n",
	"18446744073709551616,1\n",
	"00000000000000000000018446744073709551615,1\n",
	"1,2,3\n",
	"1,2,\n",
	"1,0,2,4\n",
	"1,0\n",
	"1,+7,2\n",
	"1, -2 ,2\n",
	"1,3,2\n",
	"1,0x0,2\n",
	"1,-9223372036854775808,2\n",
	"1,9223372036854775808,2\n",
	"  1 , 2 \n\n\n9,0\n",
	"\u00a01,2\u00a0\n\u00a0{\"key\":1,\"value\":2}\u00a0\n",
	"1\u00a0,\u20282\n",
	"1,2\r\n3,4\r\n",
	// The header is a header on line 1 only.
	"\nkey,value\n1,2\n",
	"1,2\nkey,value\n",
	"key\nkey\n",
	"\nkey,instance,value\n1,0,2\n",
	" key,value \n1,2\n",
	// What the window lexers take, and what lies one byte outside it.
	"{\"key\": 1, \"value\": 2.5}\n{\"key\": 2, \"instance\": 7, \"value\": 1e5}\n",
	"\t{\t\"key\"\t:\t1\t,\t\"value\"\t:\t2\t}\t\r\n  {  \"key\"  :  2  ,  \"instance\"  :  -2  ,  \"value\"  :  3  }  \n",
	"  {\"key\":1,\"value\":2}  \n\t1,2\t\n 3 , 0 , 4 \r\n",
	"{\"key\":1,\"value\":-0}\n2,-0\n3,0,-0\n",
	"{\"key\":1,\"value\":1e5}\n{\"key\":2,\"value\":1E+400}\n",
	"1,1e5\n2,1E+400\n",
	"{\"key\":007,\"value\":2}\n",
	"007,0,2\n08,2\n",
	"1234567890123456789,1\n12345678901234567890,2\n1234567890123456789,0,1\n12345678901234567890,0,2\n",
	"{\"key\":1234567890123456789,\"value\":1}\n{\"key\":12345678901234567890,\"instance\":0,\"value\":2}\n",
	"1,+1\n2,.5\n3,1.\n4,0x1p-2\n5,Inf\n",
	"1,0,+1\n2,0,.5\n3,0,1.\n4,0,0x1p-2\n5,0,Inf\n",
	"key,value\nkey,value\n1,2\n",
	"key,instance,value\n1,0,2\nkey,instance,value\n",
	"1,2,3\n1,2,3,4\n1,0,2,\n",
	"\u00851,2\n\u0085{\"key\":1,\"value\":2}\n\u00852,0,2\n",
	"1,2\u00a0\n{\"key\":2,\"value\":2}\u00a0\n3,0,2\u00a0\n",
	"1,2\r\r\n{\"key\":2,\"value\":2}\r\r\n\r3,0,2\n",
	"{\"key\":1,\"value\":2,\"value\":null}\n{\"key\":2,\"instance\":0,\"value\":2,\"value\":null}\n",
	"{\"key\":1,\"value\":2}\n\n\n{\"key\":1,\"value\":3}\n",
	// Repeats, key 0 included (the set's out-of-band key).
	"0,1\n0,2\n",
	"0,1\n5,1\n5,2\n",
	"{\"key\":0,\"value\":1}\n{\"key\":0,\"value\":1}\n",
	"0,0,1\n0,7,1\n0,0,1\n",
	"1,0,2\n1,7,2\n1,-2,2\n1,7,2\n",
	// Errors after some pairs were pushed, and unterminated last lines.
	"1,2\n3,4\n5,x\n7,8\n",
	"{\"key\":1,\"value\":2}\n{\"key\":2,\"value\":-3}\n",
	"1,2\n3,4",
	"1,2\n\xff\x00\xff\x00",
}

// addScanDiffSeeds seeds a differential fuzzer: every body with no lead
// (where a header is a header), then the bodies that fail, or repeat a key,
// behind leads that put their lines on either side of a batch edge.
func addScanDiffSeeds(f *testing.F) {
	for _, s := range scanDiffSeeds {
		f.Add(uint16(0), []byte(s))
	}
	for _, s := range wordPathSeeds() {
		f.Add(uint16(0), []byte(s))
		f.Add(uint16(ingestBatch-1), []byte(s))
	}
	// A line over the scanner's cap, alone and after accepted pairs.
	f.Add(uint16(0), []byte("1,"+strings.Repeat("3", maxIngestLine+10)))
	f.Add(uint16(0), []byte("1,2\n{\"key\":2,\"value\":"+strings.Repeat("3", maxIngestLine+10)+"}"))
	// Enough distinct keys to grow the repeated-key set several times,
	// then a repeat of the first.
	var many bytes.Buffer
	for k := 1; k <= 3000; k++ {
		fmt.Fprintf(&many, "%d,0,1\n", k*1024)
	}
	many.WriteString("1024,0,1\n")
	f.Add(uint16(0), many.Bytes())
	f.Add(uint16(0), bytes.ReplaceAll(many.Bytes(), []byte(",0,"), []byte(",")))
	for _, lead := range []uint16{ingestBatch - 2, ingestBatch - 1, ingestBatch, 2*ingestBatch - 1} {
		for _, s := range []string{
			"1,2\n3,4\n5,x\n7,8\n",
			"{\"key\":1,\"value\":2}\n{\"key\":2,\"value\":-3}\n",
			"0,1\n5,1\n5,2\n",
			"4294967296,1\n", // the first lead key again
			"{\"key\":4294967297,\"value\":1}\n{\"key\":1,\"value\":}\n", // a lead key again, then garbage
			"1,0,2\n1,7,2\n1,-2,2\n1,7,2\n",
			"4294967296,7,1\n1,3,2\n", // a lead (key, instance) again, then an unlisted instance
			"1,2\n3,4",
			"1,2\n\xff\x00\xff\x00",
		} {
			f.Add(lead, []byte(s))
		}
	}
}

// wordPathSeeds are bodies at the edges of the window lexers' word path,
// in both formats, as pairs and as triples of instance 0: keys and value
// tokens of every length around an 8-byte load, the number forms the word
// path leaves to the byte path, CRLF and single-blank lines, and a last
// line that ends before a load from its start would.
func wordPathSeeds() []string {
	keys := []string{"12345678", "1234567812345678", "1234567890123456789", "12345678901234567890", "0", "007", "9"}
	values := []string{"1234567890123456789012", "12345678901234567890123", "0.5", "1.", ".5", "1e5", "-0",
		"12345678", "1234567.5", "123456.75", "1.2345678", "0", "2.50", "00.5"}
	var out []string
	for _, csv := range []bool{true, false} {
		for _, multi := range []bool{false, true} {
			line := func(key, value string) string {
				switch {
				case csv && multi:
					return key + ",0," + value
				case csv:
					return key + "," + value
				case multi:
					return `{"key":` + key + `,"instance":0,"value":` + value + "}"
				}
				return `{"key":` + key + `,"value":` + value + "}"
			}
			var keyed, valued strings.Builder
			for i, key := range keys {
				keyed.WriteString(line(key, strconv.Itoa(i+1)) + "\n")
			}
			for i, value := range values {
				valued.WriteString(line(strconv.Itoa(1000+i), value) + "\n")
			}
			spaced := strings.Replace(line("13", "2.5"), ",", ", ", 1)
			out = append(out, keyed.String(), valued.String(),
				line("11", "2.5")+"\r\n"+line("12", "2.5")+"\n"+spaced+"\n")
			// The body ends 7, 8 and 9 bytes into the last line's value,
			// and 16 and 17 bytes into its key: a word loaded at the
			// token's start, or after its first two, would run past the
			// window.
			last := line("12345678", "1234567.5")
			at := strings.Index(last, "1234567.5")
			for cut := 7; cut <= 9; cut++ {
				out = append(out, line("14", "2.5")+"\n"+last[:at+cut])
			}
			last = line("12345678123456789", "1")
			at = strings.Index(last, "12345678123456789")
			for cut := 16; cut <= 17; cut++ {
				out = append(out, line("15", "2.5")+"\n"+last[:at+cut])
			}
		}
	}
	return out
}

// FuzzScanPairsDiff holds scanPairs to its reference and, in a gated leg,
// the gated scan into real samplers to the ungated one.
func FuzzScanPairsDiff(f *testing.F) {
	addScanDiffSeeds(f)
	f.Fuzz(func(t *testing.T, lead uint16, body []byte) {
		diffScanPairs(t, int(lead%1024), body)
		for _, format := range []string{"csv", "ndjson"} {
			whole := append(leadLines(format, false, int(lead%1024)), body...)
			diffGatedScan(t, format, whole, wholeReader, fmt.Sprintf("lead=%d", lead%1024))
		}
	})
}

// FuzzScanMultiPairsDiff holds scanMultiPairs to its reference and, in a
// gated leg, the gated scan of one listed instance into real samplers to
// the ungated reference.
func FuzzScanMultiPairsDiff(f *testing.F) {
	addScanDiffSeeds(f)
	f.Fuzz(func(t *testing.T, lead uint16, body []byte) {
		diffScanMultiPairs(t, int(lead%1024), body)
		for _, format := range []string{"csv", "ndjson"} {
			whole := append(soloLines(format, int(lead%1024)), body...)
			diffGatedMultiScan(t, format, whole, wholeReader, fmt.Sprintf("lead=%d", lead%1024))
		}
	})
}

// TestScanDiffGenerated runs the same differential check on bodies built
// from the grammar's own tokens — byte mutation rarely lands on a line
// that is one token away from the fast path, which is where a lexer that
// accepts slightly more than encoding/json or strconv would show.
func TestScanDiffGenerated(t *testing.T) {
	rng := rand.New(rand.NewPCG(2011, 12))
	pick := func(pool []string) string { return pool[rng.IntN(len(pool))] }
	spaces := []string{"", "", "", "", " ", "\t", "  ", "\r", " ", "\v"}
	numbers := []string{
		"0", "1", "2", "7", "-2", "-0", "-1", "+1", "01", "00", "12345678901234567890",
		"18446744073709551615", "18446744073709551616", "9223372036854775807", "-9223372036854775808",
		"999999999999999999", "1000000000000000000", "1.5", "0.25", "2.50", "0.0", "1.", ".5", "1e3", "1E-2",
		"1e+2", "1e", "1e999", "1e-999", "123456789.123456", "1234567890.123456", "0.1000000000000000055511151231257827",
		"4.9e-324", "0x1p3", "0x10", "1_0", "inf", "Inf", "NaN", "null", "true", `"1"`, "[1]", "{}", "",
	}
	names := []string{`"key"`, `"key"`, `"key"`, `"value"`, `"value"`, `"instance"`, `"instance"`,
		`"Key"`, `"VALUE"`, `"key"`, `"other"`, `key`, `""`}
	ndjsonLine := func() string {
		var b strings.Builder
		member := func(name string) {
			b.WriteString(pick(spaces) + name + pick(spaces) + ":" + pick(spaces) + pick(numbers) + pick(spaces))
		}
		b.WriteString(pick(spaces) + "{")
		for i, name := range []string{`"key"`, `"instance"`, `"value"`} {
			if i > 0 && rng.IntN(3) == 0 {
				continue
			}
			if rng.IntN(12) == 0 {
				name = pick(names)
			}
			if b.Len() > 2 || rng.IntN(40) == 0 {
				b.WriteString(",")
			}
			member(name)
		}
		return b.String() + pick([]string{"}", "}", "}", "}", "", "}}", "},", "} x"}) + pick(spaces)
	}
	csvLine := func() string {
		fields := make([]string, 1+rng.IntN(4))
		for i := range fields {
			fields[i] = pick(spaces) + pick(numbers) + pick(spaces)
		}
		return strings.Join(fields, ",")
	}
	for n := 0; n < 20_000; n++ {
		var body strings.Builder
		if rng.IntN(8) == 0 {
			body.WriteString(pick([]string{"key,value", "key", "key,instance,value", ""}) + "\n")
		}
		line := ndjsonLine
		if n%2 == 0 {
			line = csvLine
		}
		for l := 1 + rng.IntN(4); l > 0; l-- {
			body.WriteString(line() + pick([]string{"\n", "\n", "\r\n", "\n\n"}))
		}
		lead := 0
		if n%64 == 1 {
			lead = ingestBatch - 1 - rng.IntN(3) // the body's lines straddle a batch edge
		}
		diffScanPairs(t, lead, []byte(body.String()))
		diffScanMultiPairs(t, lead, []byte(body.String()))
	}
}
