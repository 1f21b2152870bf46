package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sampling"
	"repro/pkg/api"
	"repro/pkg/client"
)

// multiCSVBody renders the sites as one combined key,instance,value CSV
// stream; ids[i] is site i's instance ID.
func multiCSVBody(sites []dataset.Instance, ids []int) []byte {
	var buf bytes.Buffer
	buf.WriteString("key,instance,value\n")
	for i, in := range sites {
		for _, h := range in.Keys() {
			fmt.Fprintf(&buf, "%d,%d,%g\n", uint64(h), ids[i], in[h])
		}
	}
	return buf.Bytes()
}

// multiNdjsonBody is the ndjson equivalent of multiCSVBody.
func multiNdjsonBody(sites []dataset.Instance, ids []int) []byte {
	var buf bytes.Buffer
	for i, in := range sites {
		for _, h := range in.Keys() {
			fmt.Fprintf(&buf, "{\"key\":%d,\"instance\":%d,\"value\":%g}\n", uint64(h), ids[i], in[h])
		}
	}
	return buf.Bytes()
}

// fetchV2 returns the canonical v2 bytes the server stores for one
// instance of a dataset.
func fetchV2(t *testing.T, c *client.Client, dataset string, instance int) []byte {
	t.Helper()
	q := url.Values{"dataset": {dataset}, "instance": {strconv.Itoa(instance)}}
	req, err := http.NewRequest(http.MethodGet, c.BaseURL()+"/v1/summaries?"+q.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", core.ContentTypeV2)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s instance %d: status %d, %v", dataset, instance, resp.StatusCode, err)
	}
	return body
}

// TestIngestMultiEndToEnd: one POST /v1/ingest/multi populates every
// instance of a dataset with a single scan, and every stored summary is
// byte for byte the per-instance in-process summary — the v2 bytes the
// server holds equal those of Summarize* — for pps over ndjson and
// bottom-k over CSV. Each request is one ingest of the engine block in
// /healthz, counting the body's pairs; healthz reports the growing
// dataset count along the way.
func TestIngestMultiEndToEnd(t *testing.T) {
	sites := fixture(900)
	ids := []int{0, 1, 2}
	summ := core.NewSummarizer(testSalt)
	taus := make([]float64, len(sites))
	for i, in := range sites {
		taus[i] = sampling.TauForExpectedSize(in, 120)
	}
	var want int64
	for _, in := range sites {
		want += int64(len(in))
	}

	c, closeSrv := startServer(t, engine.Config{})
	defer closeSrv()
	ctx := context.Background()

	engineBlock := func() api.EngineStatus {
		t.Helper()
		hr, err := c.Health(ctx)
		if err != nil || hr.Engine == nil {
			t.Fatalf("Health = %+v, %v; want an engine block", hr, err)
		}
		return *hr.Engine
	}
	// checkRequest holds one multi ingest to the per-instance summaries
	// and to one ingest of the body's pairs in the engine block.
	checkRequest := func(kind, dataset string, res api.MultiPostResult, before api.EngineStatus, local func(i int) core.Summary) {
		t.Helper()
		if res.Pairs != want || len(res.Sizes) != len(ids) {
			t.Fatalf("%s: IngestMulti = %+v, want %d pairs over %d instances", kind, res, want, len(ids))
		}
		for i, id := range ids {
			wantBytes, err := core.EncodeSummary(local(i), 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := fetchV2(t, c, dataset, id); !bytes.Equal(got, wantBytes) {
				t.Errorf("%s instance %d: stored v2 bytes (%d) differ from the per-instance summary's (%d)", kind, id, len(got), len(wantBytes))
			}
			if res.Sizes[i] != local(i).Size() {
				t.Errorf("%s instance %d: stored size %d, want %d", kind, id, res.Sizes[i], local(i).Size())
			}
		}
		after := engineBlock()
		if after.Pairs != before.Pairs+uint64(want) || after.Ingests != before.Ingests+1 {
			t.Errorf("%s: engine block went from %+v to %+v, want %d more pairs in one more ingest", kind, before, after, want)
		}
	}

	// PPS over ndjson with per-instance thresholds.
	before := engineBlock()
	res, err := c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "flows", Instances: ids, Kind: "pps", Format: "ndjson",
		Salt: testSalt, SaltSet: true, Taus: taus,
	}, bytes.NewReader(multiNdjsonBody(sites, ids)))
	if err != nil {
		t.Fatal(err)
	}
	localPPS := make([]*core.PPSSummary, len(sites))
	for i, in := range sites {
		localPPS[i] = summ.SummarizePPS(ids[i], in, taus[i])
	}
	checkRequest("pps", "flows", res, before, func(i int) core.Summary { return localPPS[i] })
	srvDom, err := c.MaxDominance(ctx, "flows", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	locDom, err := core.MaxDominanceReaders(localPPS[0], localPPS[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if srvDom.HT != locDom.HT || srvDom.L != locDom.L {
		t.Errorf("maxdominance over one-pass dataset: got (%v, %v), want (%v, %v)",
			srvDom.HT, srvDom.L, locDom.HT, locDom.L)
	}
	sum2, err := c.Sum(ctx, "flows", 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := localPPS[2].SubsetSum(nil); sum2.Sum != want {
		t.Errorf("sum over one-pass dataset: got %v, want %v", sum2.Sum, want)
	}

	// Bottom-k over CSV.
	before = engineBlock()
	res, err = c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "ranks", Instances: ids, Kind: "bottomk", K: 80, Format: "csv",
		Salt: testSalt, SaltSet: true,
	}, bytes.NewReader(multiCSVBody(sites, ids)))
	if err != nil {
		t.Fatal(err)
	}
	checkRequest("bottomk", "ranks", res, before, func(i int) core.Summary {
		return summ.SummarizeBottomK(ids[i], sites[i], 80, sampling.PPS{})
	})

	hr, err := c.Health(ctx)
	if err != nil || hr.Status != "ok" || hr.Datasets != 2 {
		t.Errorf("Health = %+v, %v; want ok with 2 datasets", hr, err)
	}
}

// TestIngestMultiErrors: malformed parameters and bodies fail cleanly
// with the right status codes, and never corrupt the registry.
func TestIngestMultiErrors(t *testing.T) {
	sites := fixture(150)
	ids := []int{0, 1, 2}
	c, closeSrv := startServer(t, engine.Config{})
	defer closeSrv()
	ctx := context.Background()

	expect := func(name string, err error, fragment string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: expected an error", name)
			return
		}
		if !strings.Contains(err.Error(), fragment) {
			t.Errorf("%s: error %q does not mention %q", name, err, fragment)
		}
	}

	_, err := c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "m", Instances: nil, Kind: "pps", Salt: 1, SaltSet: true, Taus: []float64{5},
	}, bytes.NewReader(nil))
	expect("missing instances", err, "instances parameter")
	_, err = c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "m", Instances: []int{0, 0}, Kind: "pps", Salt: 1, SaltSet: true, Taus: []float64{5},
	}, bytes.NewReader(nil))
	expect("duplicate instance", err, "duplicate instance")
	// The instances list is capped, at the server's maxIngestInstances,
	// before any stream is opened.
	const maxInstances = 1024
	for _, n := range []int{maxInstances, maxInstances + 1} {
		many := make([]int, n)
		for i := range many {
			many[i] = i
		}
		_, err = c.IngestMulti(ctx, client.MultiIngestOptions{
			Dataset: fmt.Sprintf("many%d", n), Instances: many, Kind: "pps", Salt: 1, SaltSet: true, Taus: []float64{5},
		}, bytes.NewReader(nil))
		var se *client.StatusError
		switch {
		case n == maxInstances && err != nil:
			t.Errorf("%d instances: %v, want accepted", n, err)
		case n > maxInstances && (!errors.As(err, &se) || se.Status != http.StatusBadRequest || !strings.Contains(se.Message, "more than 1024 instances")):
			t.Errorf("%d instances: error %v, want a 400 that names the cap", n, err)
		}
	}
	_, err = c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "m", Instances: ids, Kind: "pps", Salt: 1, SaltSet: true, Taus: []float64{5, 6},
	}, bytes.NewReader(nil))
	expect("tau count", err, "tau values")
	_, err = c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "m", Instances: ids, Kind: "set", Salt: 1, SaltSet: true,
	}, bytes.NewReader(nil))
	expect("set kind", err, "pps and bottomk")
	_, err = c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "m", Instances: ids, Kind: "pps", Salt: 1, SaltSet: true, Taus: []float64{5}, Format: "csv",
	}, strings.NewReader("1,9,3\n"))
	expect("unlisted instance", err, "instance 9")
	_, err = c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "m", Instances: ids, Kind: "pps", Salt: 1, SaltSet: true, Taus: []float64{5}, Format: "csv",
	}, strings.NewReader("1,0,3\n1,0,4\n"))
	expect("repeated pair", err, "repeated")
	// The same key in two different instances is the whole point, not an
	// error.
	if _, err := c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "m", Instances: ids, Kind: "pps", Salt: 1, SaltSet: true, Taus: []float64{5}, Format: "csv",
	}, strings.NewReader("1,0,3\n1,1,4\n")); err != nil {
		t.Errorf("same key across instances: %v", err)
	}
	_, err = c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "m", Instances: ids, Kind: "pps", Salt: 1, SaltSet: true, Taus: []float64{5}, Format: "csv",
	}, strings.NewReader("1,0\n"))
	expect("missing column", err, "key,instance,value")
	_, err = c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "m", Instances: ids, Kind: "pps", Salt: 1, SaltSet: true, Taus: []float64{5},
	}, strings.NewReader(`{"key":1,"value":2}`+"\n"))
	expect("missing instance field", err, "instance")

	// Randomization conflicts are 409s, pre-checked before the body.
	if _, err := c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "pinned", Instances: ids, Kind: "pps",
		Salt: testSalt, SaltSet: true, Taus: []float64{5},
	}, bytes.NewReader(multiNdjsonBody(sites, ids))); err != nil {
		t.Fatal(err)
	}
	_, err = c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "pinned", Instances: ids, Kind: "pps",
		Salt: 999, SaltSet: true, Taus: []float64{5},
	}, bytes.NewReader(nil))
	expect("salt conflict", err, "HTTP 409")
	_, err = c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "pinned", Instances: ids, Kind: "bottomk", K: 5,
	}, bytes.NewReader(nil))
	expect("kind conflict", err, "HTTP 409")
}

// TestIngestRoutesAgree: /v1/ingest?instance=i is the one-instance case of
// /v1/ingest/multi?instances=i, so the same pairs through either route,
// into two datasets under one salt, store the same v2 bytes and count the
// same pairs — for pps and for bottom-k under both rank families, over CSV
// and ndjson. A repeated key or a negative value fails both routes with
// the same status; a repeat is worded per route, a bad value alike.
func TestIngestRoutesAgree(t *testing.T) {
	const id = 5
	in := fixture(600)[1]
	tau := sampling.TauForExpectedSize(in, 80)
	c, closeSrv := startServer(t, engine.Config{})
	defer closeSrv()
	ctx := context.Background()

	ingest := func(ds, kind, family, format string, multi bool, body []byte) (int64, error) {
		if multi {
			res, err := c.IngestMulti(ctx, client.MultiIngestOptions{
				Dataset: ds, Instances: []int{id}, Kind: kind, Format: format,
				Salt: testSalt, SaltSet: true, Taus: []float64{tau}, K: 40, Family: family,
			}, bytes.NewReader(body))
			return res.Pairs, err
		}
		res, err := c.Ingest(ctx, client.IngestOptions{
			Dataset: ds, Instance: id, Kind: kind, Format: format,
			Salt: testSalt, SaltSet: true, Tau: tau, K: 40, Family: family,
		}, bytes.NewReader(body))
		return res.Pairs, err
	}
	// bodies renders in through each route, then the extra lines.
	bodies := func(format string, extra ...string) (single, multi []byte) {
		single, multi = ndjsonBody(in), multiNdjsonBody([]dataset.Instance{in}, []int{id})
		if format == "csv" {
			single, multi = csvBody(in), multiCSVBody([]dataset.Instance{in}, []int{id})
		}
		for _, kv := range extra {
			key, value, _ := strings.Cut(kv, "=")
			if format == "csv" {
				single = fmt.Appendf(single, "%s,%s\n", key, value)
				multi = fmt.Appendf(multi, "%s,%d,%s\n", key, id, value)
			} else {
				single = fmt.Appendf(single, "{\"key\":%s,\"value\":%s}\n", key, value)
				multi = fmt.Appendf(multi, "{\"key\":%s,\"instance\":%d,\"value\":%s}\n", key, id, value)
			}
		}
		return single, multi
	}

	for _, format := range []string{"csv", "ndjson"} {
		single, multi := bodies(format)
		for _, k := range []struct{ kind, family string }{{"pps", ""}, {"bottomk", "pps"}, {"bottomk", "exp"}} {
			name := fmt.Sprintf("%s_%s_%s", format, k.kind, k.family)
			n1, err1 := ingest("one_"+name, k.kind, k.family, format, false, single)
			n2, err2 := ingest("multi_"+name, k.kind, k.family, format, true, multi)
			if err1 != nil || err2 != nil || n1 != n2 || n1 != int64(len(in)) {
				t.Fatalf("%s: /v1/ingest %d pairs (%v), /v1/ingest/multi %d pairs (%v); want %d on both", name, n1, err1, n2, err2, len(in))
			}
			if one, two := fetchV2(t, c, "one_"+name, id), fetchV2(t, c, "multi_"+name, id); !bytes.Equal(one, two) {
				t.Errorf("%s: stored v2 bytes differ between the routes (%d and %d bytes)", name, len(one), len(two))
			}
		}
	}

	first := uint64(in.Keys()[0])
	for _, f := range []struct {
		name, extra string
		words       func(line int) [2]string // what /v1/ingest's and /v1/ingest/multi's errors say
	}{
		{"repeated key", fmt.Sprintf("%d=2", first), func(line int) [2]string {
			return [2]string{
				fmt.Sprintf("line %d: key %d repeated; weighted ingest", line, first),
				fmt.Sprintf("line %d: key %d repeated for instance %d;", line, first, id)}
		}},
		{"negative value", "1000000=-1", func(line int) [2]string {
			w := fmt.Sprintf("line %d: value -1 outside", line)
			return [2]string{w, w}
		}},
	} {
		for _, format := range []string{"csv", "ndjson"} {
			single, multi := bodies(format, f.extra)
			line := len(in) + 1 // the extra line: behind the header, in csv
			if format == "csv" {
				line++
			}
			words := f.words(line)
			var statuses [2]int
			for i, body := range [][]byte{single, multi} {
				_, err := ingest(fmt.Sprintf("bad %s %s %d", f.name, format, i), "pps", "", format, i == 1, body)
				var se *client.StatusError
				if !errors.As(err, &se) || !strings.Contains(se.Message, words[i]) {
					t.Fatalf("%s over %s, multi=%v: error %v, want one that says %q", f.name, format, i == 1, err, words[i])
				}
				statuses[i] = se.Status
			}
			if statuses[0] != http.StatusBadRequest || statuses[1] != statuses[0] {
				t.Errorf("%s over %s: /v1/ingest answered %d, /v1/ingest/multi %d; want 400 on both", f.name, format, statuses[0], statuses[1])
			}
		}
	}
}
