package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs/trace"
	"repro/pkg/api"
)

// GET /v1/query is one handler over one table: a row of queryKinds says what
// distinguishes a query kind — which summaries it answers over, how many,
// with what parameters, and how — and answerQuery does the rest, once. The
// README's query table and the tests in query_test.go iterate the rows.

// queryCall is one request as a row sees it.
type queryCall struct {
	dataset   string
	sums      []core.Summary
	instances []int        // sums' instance ids, in order
	explain   *api.Explain // nil unless explain=1
	params    url.Values   // where run reads the parameters its row names
}

// queryKind is one row of the query table.
type queryKind struct {
	name string
	// kinds are the summary kinds the query answers over, and alone one it
	// answers over only a single instance of; a dataset of any other is
	// refused, naming kinds[0].
	kinds []string
	alone string
	// minArity and maxArity bound the number of instances (maxArity 0 = no
	// upper bound). arity is the handler's refusal outside them, with a %d
	// for the count; it is empty where run's core call is what refuses
	// (quantile; distinct, whose lower bound depends on the summary kind).
	minArity, maxArity int
	arity              string
	// params names the parameters run reads beside the common dataset,
	// instances and explain.
	params []string
	// run answers with the pkg/api result and the number of keys its ordered
	// walk visited (0 for a point query, which walks none).
	run func(c queryCall) (result any, unionKeys int, err error)
}

var queryKinds = []queryKind{{
	name: "distinct", kinds: []string{"set"}, alone: "bottomk", minArity: 1,
	run: func(c queryCall) (any, int, error) {
		res := api.DistinctResult{Dataset: c.dataset, Instances: c.instances, Explain: c.explain}
		// A single bottom-k instance answers its own distinct count with the
		// rank-conditioning estimator (exact when never thresholded); the
		// multi-instance form needs the set summaries' shared seeds.
		if b, ok := c.sums[0].(core.BottomKReader); ok {
			res.HT, res.KeysUsed = core.BottomKDistinct(b), b.Size()
			res.Accuracy = accuracyFor(core.BottomKDistinctStdErr(b, res.HT))
			return res, b.Size(), nil
		}
		sets := narrow[core.SetReader](c.sums)
		est, err := core.DistinctCountMultiReaders(sets, nil)
		if err != nil {
			return nil, 0, err
		}
		res.HT, res.L, res.KeysUsed = est.HT, est.L, est.KeysUsed
		res.Accuracy = accuracyFor(core.DistinctHTStdErr(sets, est.HT))
		// The walk visited the whole key union, which is the estimate's
		// KeysUsed only because no selection is passed.
		return res, est.KeysUsed, nil
	},
}, {
	name: "maxdominance", kinds: []string{"pps"}, minArity: 2, maxArity: 2,
	arity: "server: maxdominance needs exactly 2 instances, got %d (pass instances=i,j)",
	run: func(c queryCall) (any, int, error) {
		pps := narrow[core.PPSReader](c.sums)
		est, err := core.MaxDominanceReaders(pps[0], pps[1], nil)
		if err != nil {
			return nil, 0, err
		}
		return api.DominanceResult{
			Dataset: c.dataset, Instances: c.instances,
			HT: est.HT, L: est.L, KeysUsed: est.KeysUsed, Explain: c.explain,
		}, est.KeysUsed, nil
	},
}, {
	name: "quantile", kinds: []string{"pps"}, minArity: 2,
	params: []string{"key", "l"},
	run: func(c queryCall) (any, int, error) {
		key, err := strconv.ParseUint(c.params.Get("key"), 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("server: quantile needs a key parameter: %w", err)
		}
		l := 1
		if v := c.params.Get("l"); v != "" {
			if l, err = strconv.Atoi(v); err != nil {
				return nil, 0, fmt.Errorf("server: invalid quantile index %q", v)
			}
		}
		est, err := core.QuantilePPSReaders(narrow[core.PPSReader](c.sums), dataset.Key(key), l)
		if err != nil {
			return nil, 0, err
		}
		return api.QuantileResult{
			Dataset: c.dataset, Instances: c.instances, Key: key, Index: l,
			HT: est.HT, Sampled: est.Sampled, Explain: c.explain,
		}, 0, nil
	},
}, {
	name: "sum", kinds: []string{"pps", "bottomk", "set"}, minArity: 1, maxArity: 1,
	arity: "server: sum is a single-instance query, got %d instances (pass instances=i)",
	run: func(c queryCall) (any, int, error) {
		var total, stderr float64
		bounded, walked := false, c.sums[0].Size()
		switch sum := c.sums[0].(type) {
		case core.SetReader:
			// HT cardinality estimate of the underlying set, from its size.
			total, walked = float64(sum.Size())/sum.SetP(), 0
			stderr, bounded = core.SumStdErr(sum, total)
		case core.PPSReader:
			// One walk of the entries answers the estimate and its error bar.
			total, stderr, bounded = core.PPSSumStdErr(sum)
		case core.BottomKReader:
			// A bottom-k summary answers the subset-sum estimate directly,
			// walking its own keys; its bound needs no walk.
			total = sum.SubsetSum(nil)
			stderr, bounded = core.SumStdErr(sum, total)
		default:
			return nil, 0, fmt.Errorf("server: sum not supported for kind %s", c.sums[0].Kind())
		}
		res := api.SumResult{Dataset: c.dataset, Instance: c.instances[0], Sum: total, Explain: c.explain}
		res.Accuracy = accuracyFor(stderr, bounded)
		return res, walked, nil
	},
}}

// lookupQuery finds the row of a q parameter; its refusals list the table's
// kinds.
func lookupQuery(name string) (*queryKind, error) {
	if i := slices.IndexFunc(queryKinds, func(k queryKind) bool { return k.name == name }); i >= 0 {
		return &queryKinds[i], nil
	}
	names := make([]string, len(queryKinds))
	for i, k := range queryKinds {
		names[i] = k.name
	}
	if name == "" {
		return nil, fmt.Errorf("server: missing q parameter (%s)", strings.Join(names, ", "))
	}
	return nil, fmt.Errorf("server: unknown query %q (%s)", name, strings.Join(names, ", "))
}

// errNonFinite marks an answer that is ±Inf or NaN: a property of the stored
// values (a sum that overflows, a closed form that leaves float64's range),
// so it is refused as unprocessable, never clamped and never a 500.
var errNonFinite = errors.New("server: answer is not finite")

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := s.answerQuery(r)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// answerQuery is the one path from a request to its response bytes: the
// common parameters, the row's refusals (summary kind, then arity), its
// run, and the encoding.
func (s *Server) answerQuery(r *http.Request) ([]byte, error) {
	q := r.URL.Query()
	c := queryCall{dataset: q.Get("dataset"), params: q}
	if err := checkDatasetName(c.dataset); err != nil {
		return nil, err
	}
	instances, err := parseInstances(q.Get("instances"))
	if err != nil {
		return nil, err
	}
	if c.sums, err = s.reg.Get(c.dataset, instances); err != nil {
		return nil, err
	}
	c.instances = make([]int, len(c.sums))
	for i, sum := range c.sums {
		c.instances[i] = sum.InstanceID()
	}
	// The explain report and the per-summary scan spans describe the same
	// thing: how much each consulted summary holds.
	if q.Get("explain") == "1" {
		c.explain = explainFor(c.sums)
	}
	k, err := lookupQuery(q.Get("q"))
	if err != nil {
		return nil, err
	}
	// Branch on the span before naming the child: the untraced path must
	// not pay the "query."+name concatenation.
	var qsp *trace.Span
	if sp := trace.SpanFromContext(r.Context()); sp != nil {
		qsp = sp.StartChild("query." + k.name)
		recordSummaryScans(qsp, c.sums)
	}
	defer qsp.Finish()
	for _, sum := range c.sums {
		if kind := sum.Kind(); !slices.Contains(k.kinds, kind) && !(kind == k.alone && len(c.sums) == 1) {
			return nil, fmt.Errorf("server: %s requires %s summaries, dataset holds %s", k.name, k.kinds[0], kind)
		}
	}
	if n := len(c.sums); k.arity != "" && (n < k.minArity || (k.maxArity > 0 && n > k.maxArity)) {
		return nil, fmt.Errorf(k.arity, n)
	}
	res, unionKeys, err := k.run(c)
	if err != nil {
		return nil, err
	}
	if unionKeys > 0 {
		qsp.SetInt("union_keys", int64(unionKeys)) // the denominator of the span's ns/key
	}
	body, err := encodeJSON(res)
	if err != nil {
		// A result is numbers and strings: what encoding/json refuses in one
		// is a float that is not finite.
		return nil, fmt.Errorf("%w: %s over instances %v of dataset %q: %v; the stored values are outside the range its estimator can represent",
			errNonFinite, k.name, c.instances, c.dataset, err)
	}
	return body, nil
}

// accuracyFor renders a standard-error bound as the optional accuracy
// block, nil when no bound is known for the summary kind.
func accuracyFor(stderr float64, ok bool) *api.Accuracy {
	if !ok {
		return nil
	}
	return &api.Accuracy{StdErr: stderr, CI95: core.CI95Z * stderr}
}

// explainFor builds the explain=1 execution report: one entry per
// consulted summary with its size, plus the scan-work totals.
func explainFor(sums []core.Summary) *api.Explain {
	out := &api.Explain{Summaries: make([]api.ExplainSummary, len(sums))}
	for i, sum := range sums {
		es := api.ExplainSummary{
			Instance: sum.InstanceID(),
			Kind:     sum.Kind(),
			Entries:  sum.Size(),
			Bytes:    core.WireSize(sum),
		}
		out.Summaries[i] = es
		out.EntriesScanned += es.Entries
		out.BytesTouched += es.Bytes
	}
	return out
}

// recordSummaryScans annotates a query span with the per-summary scan
// shape: instance, kind, entries, and bytes. Attribute volume is capped so
// a wide instances= list cannot bloat the trace ring.
func recordSummaryScans(sp *trace.Span, sums []core.Summary) {
	const maxRecorded = 8
	sp.SetInt("summaries", int64(len(sums)))
	for i, sum := range sums {
		if i == maxRecorded {
			sp.SetInt("summaries_unrecorded", int64(len(sums)-maxRecorded))
			break
		}
		sp.SetAttr("s"+strconv.Itoa(i),
			fmt.Sprintf("instance=%d kind=%s entries=%d bytes=%d",
				sum.InstanceID(), sum.Kind(), sum.Size(), core.WireSize(sum)))
	}
}

// narrow asserts summaries to the reader type a row's core call takes; the
// row's kinds, which answerQuery has checked, are the ones that have it.
func narrow[T core.Summary](sums []core.Summary) []T {
	out := make([]T, len(sums))
	for i, s := range sums {
		out[i] = s.(T)
	}
	return out
}

// parseInstances parses a comma-separated instance list ("" means all).
func parseInstances(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("server: invalid instance list %q: %w", s, err)
		}
		out[i] = n
	}
	return out, nil
}
