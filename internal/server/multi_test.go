package server_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
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
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/summaries?dataset=%s&instance=%d", c.BaseURL(), dataset, instance), nil)
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
