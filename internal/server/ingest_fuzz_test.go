package server

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
)

// Fuzz targets for the raw-ingest scanners: whatever bytes arrive on the
// wire — malformed lines, huge fields, binary garbage, hostile instance
// columns — the scanners must either consume them or return a clean
// error, never panic, and the returned pair count must equal the number
// of pushes (the handler reports it to clients and the engine relies on
// every accepted pair having been pushed exactly once).

func FuzzScanPairs(f *testing.F) {
	f.Add(true, false, []byte("key,value\n1,2\n3,4.5\n"))
	f.Add(true, true, []byte("key\n1\n2\n"))
	f.Add(false, false, []byte(`{"key":1,"value":2}`+"\n"))
	f.Add(false, true, []byte(`{"key":1}`+"\n"))
	f.Add(true, false, []byte("1,2,3\n"))                    // extra column
	f.Add(true, false, []byte("  1 , 2 \n\n\n9,0\n"))        // whitespace and blanks
	f.Add(true, false, []byte("18446744073709551615,1e308")) // extreme magnitudes
	f.Add(true, false, []byte("1,NaN\n"))
	f.Add(false, false, []byte(`{"key":null,"value":3}`+"\n"))
	f.Add(false, false, []byte("{\"key\":1,\"value\":2}\n{\"key\":1,\"value\":2}\n")) // dup key
	f.Add(true, false, []byte("1,"+strings.Repeat("9", 400)+"\n"))                    // huge field
	f.Add(true, false, append([]byte("1,2\n"), bytes.Repeat([]byte{0xff, 0x00}, 64)...))
	f.Add(true, false, []byte("1,"+strings.Repeat("3", maxIngestLine+10))) // line over the scanner cap
	f.Fuzz(func(t *testing.T, csv, keysOnly bool, body []byte) {
		format := "ndjson"
		if csv {
			format = "csv"
		}
		var pushes int64
		n, err := scanPairs(context.Background(), bytes.NewReader(body), format, keysOnly, func(ps []engine.Pair) {
			for _, p := range ps {
				if p.Value < 0 {
					t.Fatalf("negative value %v pushed", p.Value)
				}
			}
			pushes += int64(len(ps))
		})
		if n != pushes {
			t.Fatalf("scanPairs reported %d pairs, pushed %d (err=%v)", n, pushes, err)
		}
	})
}

func FuzzScanMultiPairs(f *testing.F) {
	f.Add(true, []byte("key,instance,value\n1,0,2\n1,7,3\n"))
	f.Add(false, []byte(`{"key":1,"instance":0,"value":2}`+"\n"))
	f.Add(false, []byte(`{"key":1,"value":2}`+"\n"))  // missing instance
	f.Add(true, []byte("1,3,2\n"))                    // unlisted instance
	f.Add(true, []byte("1,-9223372036854775808,2\n")) // extreme instance
	f.Add(true, []byte("1,0,2\n1,0,2\n"))             // repeated (key, instance)
	f.Add(true, []byte("1,0,2,4\n"))                  // extra column
	f.Add(true, []byte("1,0\n"))                      // missing column
	f.Add(true, []byte("key,instance,value\n"))       // header only
	f.Add(false, []byte(`{"key":1,"instance":1e99,"value":2}`+"\n"))
	f.Add(true, []byte("1,0,"+strings.Repeat("7", maxIngestLine+10))) // huge field
	f.Add(false, bytes.Repeat([]byte{0xef, 0xbb, 0xbf}, 32))
	f.Fuzz(func(t *testing.T, csv bool, body []byte) {
		format := "ndjson"
		if csv {
			format = "csv"
		}
		ids := []int{0, 7, -2}
		var pushes int64
		n, err := scanMultiPairs(context.Background(), bytes.NewReader(body), format, ids, func(pos int, ps []engine.Pair) {
			if pos < 0 || pos >= len(ids) {
				t.Fatalf("instance position %d out of range", pos)
			}
			for _, p := range ps {
				if p.Value < 0 {
					t.Fatalf("negative value %v pushed", p.Value)
				}
			}
			pushes += int64(len(ps))
		})
		if n != pushes {
			t.Fatalf("scanMultiPairs reported %d pairs, pushed %d (err=%v)", n, pushes, err)
		}
	})
}
