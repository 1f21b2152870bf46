package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/server"
)

// outOfRangeV2 is a canonical two-entry v2 PPS summary whose last entry
// value is overwritten with v.
func outOfRangeV2(t *testing.T, instance int, v float64) []byte {
	t.Helper()
	data, err := core.EncodeSummary(core.NewSummarizer(77).SummarizePPS(instance, dataset.Instance{5: 2, 9: 4}, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(data[len(data)-8:], math.Float64bits(v))
	return data
}

// TestOutOfRangeEntryValuesNeverStrandTheStore pins both halves of the
// entry value rule. No post — either wire version — gets a negative or
// non-finite entry value into the log; and a log that already holds one
// (written before the rule existed) still replays, from the WAL and from a
// snapshot, because replay decodes with DecodeStoredSummary. A store that
// refuses its own checksummed records cannot be opened at all.
func TestOutOfRangeEntryValuesNeverStrandTheStore(t *testing.T) {
	dir := t.TempDir()
	reg, st := reopen(t, dir, Options{SnapshotEvery: -1})
	srv := server.New(reg, engine.Config{})

	posts := []struct{ name, contentType, body string }{
		{"v1 pps negative", core.ContentTypeJSON, `{"version":1,"kind":"pps","instance":0,"tau":1,"salt":77,"values":{"5":2,"9":-4}}`},
		{"v1 bottomk negative", core.ContentTypeJSON, `{"version":1,"kind":"bottomk","instance":0,"family":"pps","salt":77,"values":{"5":-2}}`},
		{"v1 sniffed negative", "", `{"version":1,"kind":"pps","instance":0,"tau":1,"salt":77,"values":{"9":-4}}`},
		{"v2 +Inf", core.ContentTypeV2, string(outOfRangeV2(t, 0, math.Inf(1)))},
		{"v2 negative", core.ContentTypeV2, string(outOfRangeV2(t, 0, -4))},
	}
	for _, p := range posts {
		req := httptest.NewRequest("POST", "/v1/summaries?dataset=d", strings.NewReader(p.body))
		if p.contentType != "" {
			req.Header.Set("Content-Type", p.contentType)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "invalid entry value") {
			t.Errorf("%s: status %d body %s, want 400 naming the entry value", p.name, rec.Code, rec.Body)
		}
	}
	if got := st.Status().WALRecords; got != 0 {
		t.Fatalf("refused posts wrote %d WAL records", got)
	}

	// The data dir of an earlier version: the same summaries, accepted.
	want := make(shadow)
	put := func(instance int, v float64) {
		s, err := core.DecodeStoredSummary(outOfRangeV2(t, instance, v))
		if err != nil {
			t.Fatalf("DecodeStoredSummary(%v): %v", v, err)
		}
		if err := reg.Put("d", s); err != nil {
			t.Fatalf("put: %v", err)
		}
		want.put("d", s)
	}
	put(0, math.Inf(1))
	if err := reg.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	put(1, -4)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	reg2, st2 := reopen(t, dir, Options{SnapshotEvery: -1}) // fails the test if replay refuses a record
	defer st2.Close()
	mustMatch(t, "out-of-range values", image(t, reg2.Dump), image(t, want.dump))

	// The recovered server answers: a typed 422 where the estimate is not
	// representable, a number where it is.
	srv2 := server.New(reg2, engine.Config{})
	for instance, code := range map[string]int{"0": http.StatusUnprocessableEntity, "1": http.StatusOK} {
		rec := httptest.NewRecorder()
		srv2.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query?dataset=d&q=sum&instances="+instance, nil))
		if rec.Code != code || !bytes.HasPrefix(rec.Body.Bytes(), []byte("{")) {
			t.Errorf("sum over recovered instance %s: status %d body %q, want %d with a JSON body", instance, rec.Code, rec.Body, code)
		}
	}
}
