package server_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/sampling"
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

// TestIngestMultiEndToEnd: one POST /v1/ingest/multi populates every
// instance of a dataset with a single scan, and the stored summaries are
// bit-identical to the per-instance in-process path — across formats,
// kinds, and both randomization modes. healthz reports
// the growing dataset count along the way.
func TestIngestMultiEndToEnd(t *testing.T) {
	sites := fixture(900)
	ids := []int{0, 1, 2}
	summ := core.NewSummarizer(testSalt)
	taus := make([]float64, len(sites))
	for i, in := range sites {
		taus[i] = sampling.TauForExpectedSize(in, 120)
	}

	c, closeSrv := startServer(t, engine.Config{})
	defer closeSrv()
	ctx := context.Background()

	// PPS over ndjson with per-instance thresholds.
	res, err := c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "flows", Instances: ids, Kind: "pps", Format: "ndjson",
		Salt: testSalt, SaltSet: true, Taus: taus,
	}, bytes.NewReader(multiNdjsonBody(sites, ids)))
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, in := range sites {
		want += int64(len(in))
	}
	if res.Pairs != want || len(res.Sizes) != len(ids) {
		t.Fatalf("IngestMulti = %+v, want %d pairs over %d instances", res, want, len(ids))
	}
	localPPS := make([]*core.PPSSummary, len(sites))
	for i, in := range sites {
		localPPS[i] = summ.SummarizePPS(ids[i], in, taus[i])
		if res.Sizes[i] != localPPS[i].Size() {
			t.Errorf("instance %d: stored size %d, want %d", ids[i], res.Sizes[i], localPPS[i].Size())
		}
	}
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

	// Bottom-k over CSV: the one-pass path must reproduce the
	// per-instance summaries.
	res, err = c.IngestMulti(ctx, client.MultiIngestOptions{
		Dataset: "ranks", Instances: ids, Kind: "bottomk", K: 80, Format: "csv",
		Salt: testSalt, SaltSet: true,
	}, bytes.NewReader(multiCSVBody(sites, ids)))
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range sites {
		if want := summ.SummarizeBottomK(ids[i], in, 80, sampling.PPS{}); res.Sizes[i] != want.Size() {
			t.Errorf("bottom-k instance %d: stored size %d, want %d", ids[i], res.Sizes[i], want.Size())
		}
	}

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
