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
// in-line samplers and registers only the compact summaries. One handler
// serves both routes: /v1/ingest summarizes the one instance its instance
// parameter names, /v1/ingest/multi every instance its instances
// parameter lists, from a body whose instance column routes each pair.
// Either way each instance gets its own in-line stream under its own
// seeds, and one scan of the body feeds them all.

// maxIngestLine bounds one CSV/ndjson line.
const maxIngestLine = 1 << 20

// maxIngestBody bounds one raw ingest request. The cap also bounds the
// per-request repeated-key sets of the scan (keySet), so a single
// request cannot grow server memory without limit. Instances too large to
// ship within the cap are exactly the ones that should be summarized at
// the edge and POSTed to /v1/summaries instead — that is the primary
// dispersed workflow; raw ingest is the convenience path for thin
// producers.
const maxIngestBody = 256 << 20

// maxIngestInstances bounds /v1/ingest/multi's instances list. The handler
// opens a stream and a repeated-key set per listed instance before it
// reads the body, and registers a summary per instance after, so the cap
// bounds what one request's header can make the server hold.
const maxIngestInstances = 1024

// ingestRequest carries the parsed, validated parameters of an ingest of
// either route.
type ingestRequest struct {
	dataset   string
	instances []int       // instance IDs, in request order
	index     map[int]int // /v1/ingest/multi: instance ID → position in instances
	kind      string
	format    string
	taus      []float64           // pps, one per instance
	k         int                 // bottomk
	fam       sampling.RankFamily // bottomk
	p         float64             // set
	summ      *core.Summarizer
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

// parseIngest validates the query string of an ingest against the
// registry state: /v1/ingest names one instance, /v1/ingest/multi lists
// them (multi), and each route words its own errors.
func (s *Server) parseIngest(r *http.Request, multi bool) (ingestRequest, error) {
	q := r.URL.Query()
	out := ingestRequest{dataset: q.Get("dataset"), kind: q.Get("kind")}
	if err := checkDatasetName(out.dataset); err != nil {
		return out, err
	}
	var err error
	if out.instances, out.index, err = parseIngestInstances(q, multi); err != nil {
		return out, err
	}
	route, kinds := "ingest", "pps, bottomk, set"
	if multi {
		route, kinds = "multi ingest", "pps, bottomk"
	}
	switch out.kind {
	case "pps":
		out.taus, err = parseTaus(q.Get("tau"), len(out.instances), multi)
	case "bottomk":
		if out.k, err = strconv.Atoi(q.Get("k")); err != nil || out.k <= 0 {
			return out, fmt.Errorf("server: bottomk ingest needs a positive k parameter")
		}
		switch fam := q.Get("family"); fam {
		case "", sampling.PPS{}.Name():
			out.fam = sampling.PPS{}
		case sampling.EXP{}.Name():
			out.fam = sampling.EXP{}
		default:
			return out, fmt.Errorf("server: unknown rank family %q", fam)
		}
	case "set":
		if multi {
			return out, fmt.Errorf("server: multi ingest supports pps and bottomk (set sampling is stateless; ingest set instances separately)")
		}
		out.p, err = strconv.ParseFloat(q.Get("p"), 64)
		if err != nil || !(out.p > 0 && out.p <= 1) {
			return out, fmt.Errorf("server: set ingest needs a p parameter in (0,1]")
		}
	case "":
		return out, fmt.Errorf("server: missing kind parameter (%s)", kinds)
	default:
		return out, fmt.Errorf("server: unknown %s kind %q (%s)", route, out.kind, kinds)
	}
	if err != nil {
		return out, err
	}
	if out.summ, err = s.bindRandomization(q, out.dataset, out.kind); err != nil {
		return out, err
	}
	// The body format: the format parameter, else the Content-Type's.
	if out.format = q.Get("format"); out.format == "" {
		out.format = "ndjson"
		if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
			out.format = "csv"
		}
	}
	if out.format != "csv" && out.format != "ndjson" {
		return out, fmt.Errorf("server: unknown ingest format %q (csv, ndjson)", out.format)
	}
	return out, nil
}

// parseIngestInstances reads the instance IDs of an ingest: /v1/ingest's
// instance parameter, or /v1/ingest/multi's instances list, whose IDs
// must be distinct and at most maxIngestInstances, with the position of
// each.
func parseIngestInstances(q url.Values, multi bool) ([]int, map[int]int, error) {
	if !multi {
		instance, err := strconv.Atoi(q.Get("instance"))
		if err != nil {
			return nil, nil, fmt.Errorf("server: ingest needs an instance parameter: %w", err)
		}
		return []int{instance}, nil, nil
	}
	list := q.Get("instances")
	if strings.Count(list, ",") >= maxIngestInstances {
		return nil, nil, fmt.Errorf("server: multi ingest lists more than %d instances", maxIngestInstances)
	}
	ids, err := parseInstances(list)
	if err != nil {
		return nil, nil, err
	}
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("server: multi ingest needs an instances parameter (e.g. instances=0,1,2)")
	}
	index := make(map[int]int, len(ids))
	for i, id := range ids {
		if _, dup := index[id]; dup {
			return nil, nil, fmt.Errorf("server: duplicate instance %d in instances parameter", id)
		}
		index[id] = i
	}
	return ids, index, nil
}

// parseTaus reads one pps threshold per instance from the tau parameter:
// one number on /v1/ingest; on /v1/ingest/multi one shared by every
// instance or a comma-separated list matching them.
func parseTaus(tau string, n int, multi bool) ([]float64, error) {
	parts, bad := []string{tau}, "server: pps ingest needs a positive finite tau parameter"
	if multi {
		if parts = strings.Split(tau, ","); len(parts) != 1 && len(parts) != n {
			return nil, fmt.Errorf("server: pps multi ingest needs 1 or %d tau values, got %d", n, len(parts))
		}
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		bad = "server: pps multi ingest needs positive finite tau values"
	}
	taus := make([]float64, n)
	for i := range taus {
		v, err := strconv.ParseFloat(parts[min(i, len(parts)-1)], 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return nil, errors.New(bad)
		}
		taus[i] = v
	}
	return taus, nil
}

// handleIngest serves /v1/ingest, or with multi /v1/ingest/multi: it
// opens one in-line stream per instance, scans the body into them once,
// drains them, and registers every summary.
func (s *Server) handleIngest(multi bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p, err := s.parseIngest(r, multi)
		if err != nil {
			writeError(w, err)
			return
		}
		streams := make([]ingestStream, len(p.instances))
		for i, id := range p.instances {
			switch p.kind {
			case "pps":
				streams[i] = p.summ.StreamPPS(engine.Config{}, id, p.taus[i])
			case "bottomk":
				streams[i] = p.summ.StreamBottomK(engine.Config{}, id, p.k, p.fam)
			case "set":
				streams[i] = p.summ.StreamSet(id, p.p)
			}
		}
		// Tracing instruments the request's engine stages from outside the
		// pipeline: the scan+push loop, the drain (Close), and the registry
		// registration each get a child span, and the scan's pair count is
		// attached to the drain span — the hot loop itself stays untouched.
		sp := trace.SpanFromContext(r.Context())
		scan := sp.StartChild("ingest.scan")
		shape := lineShape{csv: p.format == "csv", keysOnly: p.kind == "set", triples: multi}
		pairs, rejected, err := scanIngest(r.Context(), http.MaxBytesReader(w, r.Body, maxIngestBody), shape, streams, p.instances, p.index)
		scan.SetAttr("format", p.format)
		scan.SetInt("pairs", pairs)
		// The pairs the gate did not reject from their seed: those whose
		// value, where the line has one, went to strconv.ParseFloat or
		// encoding/json.
		scan.SetInt("values_parsed", pairs-rejected)
		scan.Finish()
		// Drain even after a failed scan, and fold the scan's pair count
		// into the server totals: a failed scan still did this much
		// pipeline work, so record it either way. Set sampling bypasses
		// the engine, so a set ingest counts as an ingest of no pairs.
		drain := sp.StartChild("engine.drain")
		sums := make([]core.Summary, len(streams))
		for i, is := range streams {
			sums[i] = is.Close()
		}
		if p.kind != "set" {
			drain.SetInt("pairs", pairs)
			s.engine.pairs.Add(uint64(pairs))
		}
		s.engine.ingests.Add(1)
		drain.Finish()
		if err != nil {
			writeError(w, err)
			return
		}
		put := sp.StartChild("registry.put")
		sizes := make([]int, len(sums))
		for i, sum := range sums {
			if err = s.reg.PutCtx(r.Context(), p.dataset, sum); err != nil {
				break
			}
			sizes[i] = sum.Size()
		}
		put.Finish()
		if err != nil {
			writeError(w, err)
			return
		}
		if !multi {
			writeJSON(w, http.StatusCreated, api.PostResult{
				Dataset:  p.dataset,
				Instance: p.instances[0],
				Kind:     p.kind,
				Size:     sizes[0],
				Pairs:    pairs,
			})
			return
		}
		writeJSON(w, http.StatusCreated, api.MultiPostResult{
			Dataset:   p.dataset,
			Kind:      p.kind,
			Instances: p.instances,
			Sizes:     sizes,
			Pairs:     pairs,
		})
	}
}
