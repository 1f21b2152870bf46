package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// The reference scanners: the scanPairs and scanMultiPairs that shipped
// before the byte-level rewrite, verbatim — every line goes through
// strings.SplitN + strconv or encoding/json, and the repeated-key check
// is a Go map. They define which bytes are accepted, what is pushed and
// what each error says; FuzzScanPairsDiff and FuzzScanMultiPairsDiff hold
// the production scanners to them.

func scanPairsRef(body io.Reader, format string, keysOnly bool, push func(dataset.Key, float64)) (int64, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), maxIngestLine)
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
	sc.Buffer(make([]byte, 64*1024), maxIngestLine)
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

func diffScanPairs(t *testing.T, body []byte) {
	t.Helper()
	for _, format := range []string{"csv", "ndjson"} {
		for _, keysOnly := range []bool{false, true} {
			var got, want []pushedPair
			n, err := scanPairs(bytes.NewReader(body), format, keysOnly, func(h dataset.Key, v float64) {
				got = append(got, pushedPair{key: uint64(h), bits: math.Float64bits(v)})
			})
			nRef, errRef := scanPairsRef(bytes.NewReader(body), format, keysOnly, func(h dataset.Key, v float64) {
				want = append(want, pushedPair{key: uint64(h), bits: math.Float64bits(v)})
			})
			diffScan(t, fmt.Sprintf("scanPairs(%s, keysOnly=%v)", format, keysOnly), got, want, n, nRef, err, errRef)
		}
	}
}

func diffScanMultiPairs(t *testing.T, body []byte) {
	t.Helper()
	index := map[int]int{0: 0, 7: 1, -2: 2}
	for _, format := range []string{"csv", "ndjson"} {
		var got, want []pushedPair
		n, err := scanMultiPairs(bytes.NewReader(body), format, index, func(i int, h dataset.Key, v float64) {
			got = append(got, pushedPair{pos: i, key: uint64(h), bits: math.Float64bits(v)})
		})
		nRef, errRef := scanMultiPairsRef(bytes.NewReader(body), format, index, func(i int, h dataset.Key, v float64) {
			want = append(want, pushedPair{pos: i, key: uint64(h), bits: math.Float64bits(v)})
		})
		diffScan(t, fmt.Sprintf("scanMultiPairs(%s)", format), got, want, n, nRef, err, errRef)
	}
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

func addScanDiffSeeds(f *testing.F) {
	for _, s := range scanDiffSeeds {
		f.Add([]byte(s))
	}
	// A line over the scanner's cap, alone and after accepted pairs.
	f.Add([]byte("1," + strings.Repeat("3", maxIngestLine+10)))
	f.Add([]byte("1,2\n{\"key\":2,\"value\":" + strings.Repeat("3", maxIngestLine+10) + "}"))
	// Enough distinct keys to grow the repeated-key set several times,
	// then a repeat of the first.
	var many bytes.Buffer
	for k := 1; k <= 3000; k++ {
		fmt.Fprintf(&many, "%d,0,1\n", k*1024)
	}
	many.WriteString("1024,0,1\n")
	f.Add(many.Bytes())
	f.Add(bytes.ReplaceAll(many.Bytes(), []byte(",0,"), []byte(",")))
}

func FuzzScanPairsDiff(f *testing.F) {
	addScanDiffSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) { diffScanPairs(t, body) })
}

func FuzzScanMultiPairsDiff(f *testing.F) {
	addScanDiffSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) { diffScanMultiPairs(t, body) })
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
		diffScanPairs(t, []byte(body.String()))
		diffScanMultiPairs(t, []byte(body.String()))
	}
}
