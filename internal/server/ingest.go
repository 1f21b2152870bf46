package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs/trace"
	"repro/internal/sampling"
	"repro/pkg/api"
)

// The ingest path is the "summarize where the data lands" half of the
// dispersed-data loop: an edge site that cannot (or should not) ship its
// raw pair stream POSTs it to a local summaryd, which streams it through
// an in-line sampler and registers only the compact summary.
// /v1/ingest summarizes one instance per request; /v1/ingest/multi
// carries an instance column and populates every listed instance of a
// dataset with ONE scan through core's one-pass multi-instance streams
// (one sampler per instance).

// maxIngestLine bounds one CSV/ndjson line.
const maxIngestLine = 1 << 20

// maxIngestBody bounds one raw ingest request. The cap also bounds the
// per-request repeated-key set of the scanners (keySet), so a single
// request cannot grow server memory without limit. Instances too large to
// ship within the cap are exactly the ones that should be summarized at
// the edge and POSTed to /v1/summaries instead — that is the primary
// dispersed workflow; raw ingest is the convenience path for thin
// producers.
const maxIngestBody = 256 << 20

// ingestParams carries the parsed, validated parameters of one
// single-instance ingest request.
type ingestParams struct {
	dataset  string
	instance int
	kind     string
	format   string
	tau      float64             // pps
	k        int                 // bottomk
	fam      sampling.RankFamily // bottomk
	p        float64             // set
	summ     *core.Summarizer
}

// bindRandomization resolves an ingest's randomization against the
// registry state: an existing dataset pins the salt and kind (an explicit
// conflict is rejected up front, before the body is read); a new dataset
// requires an explicit salt. shared=true asks for coordinated (shared-seed)
// sampling, which no estimator here serves, so it is refused, also before
// the body is read; an absent shared or shared=false is accepted.
func (s *Server) bindRandomization(q url.Values, ds, kind string) (*core.Summarizer, error) {
	if v := q.Get("shared"); v != "" {
		shared, err := strconv.ParseBool(v)
		if err != nil {
			return nil, fmt.Errorf("server: invalid shared parameter %q", v)
		}
		if shared {
			return nil, errSharedRefused
		}
	}
	var salt uint64
	var err error
	saltGiven := q.Get("salt") != ""
	if saltGiven {
		if salt, err = strconv.ParseUint(q.Get("salt"), 10, 64); err != nil {
			return nil, fmt.Errorf("server: invalid salt parameter: %w", err)
		}
	}
	if info, err := s.reg.info(ds); err == nil {
		// The dataset pins randomization and kind; reject an explicit
		// conflict now (before the body is read) rather than summarizing a
		// stream under parameters the caller did not ask for.
		if saltGiven && salt != info.Salt {
			return nil, fmt.Errorf("%w: dataset %q uses salt %d", errIncompatible, ds, info.Salt)
		}
		if kind != info.Kind {
			return nil, fmt.Errorf("%w: dataset %q holds %s summaries, got %s",
				errIncompatible, ds, info.Kind, kind)
		}
		salt = info.Salt
	} else if !saltGiven {
		return nil, fmt.Errorf("server: new dataset %q needs a salt parameter", ds)
	}
	return core.NewSummarizer(salt), nil
}

// errSharedRefused answers an ingest with shared=true.
var errSharedRefused = errors.New("server: shared=true: coordinated (shared-seed) summaries are not supported")

// resolveFormat picks the body format from the format parameter, falling
// back to the Content-Type.
func resolveFormat(q url.Values, r *http.Request) (string, error) {
	format := q.Get("format")
	if format == "" {
		if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "text/csv") {
			format = "csv"
		} else {
			format = "ndjson"
		}
	}
	if format != "csv" && format != "ndjson" {
		return "", fmt.Errorf("server: unknown ingest format %q (csv, ndjson)", format)
	}
	return format, nil
}

// parseIngestParams validates the query string of a single-instance
// ingest against the registry state.
func (s *Server) parseIngestParams(r *http.Request) (ingestParams, error) {
	q := r.URL.Query()
	out := ingestParams{dataset: q.Get("dataset"), kind: q.Get("kind")}
	if err := checkDatasetName(out.dataset); err != nil {
		return out, err
	}
	instance, err := strconv.Atoi(q.Get("instance"))
	if err != nil {
		return out, fmt.Errorf("server: ingest needs an instance parameter: %w", err)
	}
	out.instance = instance

	switch out.kind {
	case "pps":
		out.tau, err = strconv.ParseFloat(q.Get("tau"), 64)
		if err != nil || !(out.tau > 0) || math.IsInf(out.tau, 1) {
			return out, fmt.Errorf("server: pps ingest needs a positive finite tau parameter")
		}
	case "bottomk":
		if out.k, out.fam, err = parseBottomKParams(q); err != nil {
			return out, err
		}
	case "set":
		out.p, err = strconv.ParseFloat(q.Get("p"), 64)
		if err != nil || !(out.p > 0 && out.p <= 1) {
			return out, fmt.Errorf("server: set ingest needs a p parameter in (0,1]")
		}
	case "varopt":
		out.k, err = strconv.Atoi(q.Get("k"))
		if err != nil || out.k <= 0 {
			return out, fmt.Errorf("server: varopt ingest needs a positive k parameter")
		}
	case "":
		return out, fmt.Errorf("server: missing kind parameter (pps, bottomk, set, varopt)")
	default:
		return out, fmt.Errorf("server: unknown ingest kind %q (pps, bottomk, set, varopt)", out.kind)
	}

	if out.summ, err = s.bindRandomization(q, out.dataset, out.kind); err != nil {
		return out, err
	}
	out.format, err = resolveFormat(q, r)
	return out, err
}

// parseBottomKParams parses the k and family parameters shared by the
// single- and multi-instance bottom-k ingests.
func parseBottomKParams(q url.Values) (int, sampling.RankFamily, error) {
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k <= 0 {
		return 0, nil, fmt.Errorf("server: bottomk ingest needs a positive k parameter")
	}
	switch fam := q.Get("family"); fam {
	case "", sampling.PPS{}.Name():
		return k, sampling.PPS{}, nil
	case sampling.EXP{}.Name():
		return k, sampling.EXP{}, nil
	default:
		return 0, nil, fmt.Errorf("server: unknown rank family %q", fam)
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	p, err := s.parseIngestParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	// One sink per kind: pps and bottomk route through the in-line engine,
	// varopt drives its reservoir in-line (set sampling is stateless and
	// needs no pipeline).
	var push func([]engine.Pair)
	var sampler gatedStream // pps and bottomk: the scan may reject pairs for it unparsed
	var finish func() core.Summary
	var stats func() engine.Stats // nil for set, which bypasses the engine
	switch p.kind {
	case "pps":
		st := p.summ.StreamPPS(engine.Config{}, p.instance, p.tau)
		push, sampler = st.PushBatch, st
		finish = func() core.Summary { return st.Close() }
		stats = st.Stats
	case "bottomk":
		st := p.summ.StreamBottomK(engine.Config{}, p.instance, p.k, p.fam)
		push, sampler = st.PushBatch, st
		finish = func() core.Summary { return st.Close() }
		stats = st.Stats
	case "set":
		st := p.summ.StreamSet(p.instance, p.p)
		push = func(ps []engine.Pair) {
			for _, p := range ps {
				st.Push(p.Key)
			}
		}
		finish = func() core.Summary { return st.Close() }
	case "varopt":
		st := p.summ.StreamVarOpt(p.instance, p.k)
		push = st.PushBatch
		finish = func() core.Summary { return st.Close() }
		stats = st.Stats
	}
	// Tracing instruments the request's engine stages from outside the
	// pipeline: the scan+push loop, the drain (Close), and the registry
	// registration each get a child span, and the pipeline's final Stats()
	// are attached to the drain span — the hot loop itself stays untouched.
	sp := trace.SpanFromContext(r.Context())
	scan := sp.StartChild("ingest.scan")
	pairs, rejected, err := scanPairsGated(r.Context(), http.MaxBytesReader(w, r.Body, maxIngestBody), p.format, p.kind == "set", push, sampler)
	scan.SetAttr("format", p.format)
	scan.SetInt("pairs", pairs)
	// The pairs the gate did not reject from their seed: those whose value,
	// where the line has one, went to strconv.ParseFloat or encoding/json.
	scan.SetInt("values_parsed", pairs-rejected)
	scan.Finish()
	// Drain even after a failed scan: its pairs still count below.
	drain := sp.StartChild("engine.drain")
	sum := finish()
	// Fold the pipeline's final counters into the server totals — the
	// one-shot read of the Stats() seam (safe after Close), so the hot
	// loop itself carries no instrumentation. A failed scan still did
	// this much pipeline work; record it either way.
	if stats != nil {
		st := stats()
		drain.SetInt("pairs", int64(st.Pairs))
		s.engine.record(st)
	} else {
		s.engine.ingests.Add(1)
	}
	drain.Finish()
	if err != nil {
		writeError(w, err)
		return
	}
	put := sp.StartChild("registry.put")
	err = s.reg.PutCtx(r.Context(), p.dataset, sum)
	put.Finish()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, api.PostResult{
		Dataset:  p.dataset,
		Instance: sum.InstanceID(),
		Kind:     sum.Kind(),
		Size:     sum.Size(),
		Pairs:    pairs,
	})
}

// multiIngestParams carries the parsed, validated parameters of one
// multi-instance ingest request.
type multiIngestParams struct {
	dataset   string
	instances []int       // instance IDs, in request order
	index     map[int]int // instance ID → position in instances
	kind      string
	format    string
	taus      []float64           // pps, one per instance
	k         int                 // bottomk
	fam       sampling.RankFamily // bottomk
	summ      *core.Summarizer
}

// parseMultiIngestParams validates the query string of a one-pass
// multi-instance ingest. instances lists the populated instance IDs; for
// pps, tau is either one threshold shared by every instance or a
// comma-separated list matching instances.
func (s *Server) parseMultiIngestParams(r *http.Request) (multiIngestParams, error) {
	q := r.URL.Query()
	out := multiIngestParams{dataset: q.Get("dataset"), kind: q.Get("kind")}
	if err := checkDatasetName(out.dataset); err != nil {
		return out, err
	}
	ids, err := parseInstances(q.Get("instances"))
	if err != nil {
		return out, err
	}
	if len(ids) == 0 {
		return out, fmt.Errorf("server: multi ingest needs an instances parameter (e.g. instances=0,1,2)")
	}
	out.instances = ids
	out.index = make(map[int]int, len(ids))
	for i, id := range ids {
		if _, dup := out.index[id]; dup {
			return out, fmt.Errorf("server: duplicate instance %d in instances parameter", id)
		}
		out.index[id] = i
	}

	switch out.kind {
	case "pps":
		parts := strings.Split(q.Get("tau"), ",")
		if len(parts) != 1 && len(parts) != len(ids) {
			return out, fmt.Errorf("server: pps multi ingest needs 1 or %d tau values, got %d", len(ids), len(parts))
		}
		out.taus = make([]float64, len(ids))
		for i := range out.taus {
			part := parts[0]
			if len(parts) > 1 {
				part = parts[i]
			}
			tau, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || !(tau > 0) || math.IsInf(tau, 1) {
				return out, fmt.Errorf("server: pps multi ingest needs positive finite tau values")
			}
			out.taus[i] = tau
		}
	case "bottomk":
		if out.k, out.fam, err = parseBottomKParams(q); err != nil {
			return out, err
		}
	case "":
		return out, fmt.Errorf("server: missing kind parameter (pps, bottomk)")
	case "set":
		return out, fmt.Errorf("server: multi ingest supports pps and bottomk (set sampling is stateless; ingest set instances separately)")
	default:
		return out, fmt.Errorf("server: unknown multi ingest kind %q (pps, bottomk)", out.kind)
	}

	if out.summ, err = s.bindRandomization(q, out.dataset, out.kind); err != nil {
		return out, err
	}
	out.format, err = resolveFormat(q, r)
	return out, err
}

func (s *Server) handleIngestMulti(w http.ResponseWriter, r *http.Request) {
	p, err := s.parseMultiIngestParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var push func([]core.MultiPair)
	var finish func() []core.Summary
	var stats func() engine.Stats
	switch p.kind {
	case "pps":
		st := p.summ.StreamMultiPPS(p.instances, p.taus)
		push = st.PushBatch
		finish = func() []core.Summary { return asSummaries(st.Close()) }
		stats = st.Stats
	case "bottomk":
		st := p.summ.StreamMultiBottomK(p.instances, p.k, p.fam)
		push = st.PushBatch
		finish = func() []core.Summary { return asSummaries(st.Close()) }
		stats = st.Stats
	}
	sp := trace.SpanFromContext(r.Context())
	scan := sp.StartChild("ingest.scan")
	pairs, err := scanMultiPairs(r.Context(), http.MaxBytesReader(w, r.Body, maxIngestBody), p.format, p.index, push)
	scan.SetAttr("format", p.format)
	scan.SetInt("pairs", pairs)
	scan.Finish()
	// Drain even after a failed scan, then fold the pipeline's final
	// counters into the server totals.
	drain := sp.StartChild("engine.drain")
	sums := finish()
	st := stats()
	drain.SetInt("pairs", int64(st.Pairs))
	s.engine.record(st)
	drain.Finish()
	if err != nil {
		writeError(w, err)
		return
	}
	put := sp.StartChild("registry.put")
	sizes := make([]int, len(sums))
	for i, sum := range sums {
		if err := s.reg.PutCtx(r.Context(), p.dataset, sum); err != nil {
			put.Finish()
			writeError(w, err)
			return
		}
		sizes[i] = sum.Size()
	}
	put.Finish()
	writeJSON(w, http.StatusCreated, api.MultiPostResult{
		Dataset:   p.dataset,
		Kind:      p.kind,
		Instances: p.instances,
		Sizes:     sizes,
		Pairs:     pairs,
	})
}

// asSummaries widens a concrete summary slice to the Summary interface.
func asSummaries[T core.Summary](in []T) []core.Summary {
	out := make([]core.Summary, len(in))
	for i, s := range in {
		out[i] = s
	}
	return out
}
