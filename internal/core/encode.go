package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// Summaries are what a dispersed system actually ships: a sample plus the
// metadata needed to recompute inclusion probabilities and seeds. This
// file holds the v1 JSON wire format (the codec registered as version 1 in
// codec.go) and the historical Encode*/Decode* entry points, which are now
// thin wrappers over the codec registry: they accept any registered format
// by sniffing, so a caller holding v1 JSON or v2 binary bytes decodes
// through the same functions.

// WireVersion is the version of the JSON wire format this file implements.
// Binary formats carry their own version in the header (codecv2.go);
// SupportedWireVersions lists everything this build speaks.
const WireVersion = 1

// ErrUnknownVersion reports a summary whose wire-format version this
// build does not speak. Callers negotiating formats (the summary server
// accepting posts, pkg/client choosing what to send) detect it with
// errors.Is and reply with an upgrade hint — the server maps it to HTTP
// 415 listing SupportedWireVersions — instead of a generic decode failure.
var ErrUnknownVersion = errors.New("core: unknown summary wire-format version")

// checkVersion validates a decoded JSON version number against WireVersion.
func checkVersion(kind string, version int) error {
	if version != WireVersion {
		return fmt.Errorf("core: %s summary version %d (supported: %v): %w",
			kind, version, SupportedWireVersions(), ErrUnknownVersion)
	}
	return nil
}

// ppsWire is the serialized form of a PPSSummary.
type ppsWire struct {
	Version  int                     `json:"version"`
	Kind     string                  `json:"kind"`
	Instance int                     `json:"instance"`
	Tau      float64                 `json:"tau"`
	Salt     uint64                  `json:"salt"`
	Shared   bool                    `json:"shared"`
	Values   map[dataset.Key]float64 `json:"values"`
}

// setWire is the serialized form of a SetSummary.
type setWire struct {
	Version  int           `json:"version"`
	Kind     string        `json:"kind"`
	Instance int           `json:"instance"`
	P        float64       `json:"p"`
	Salt     uint64        `json:"salt"`
	Shared   bool          `json:"shared"`
	Members  []dataset.Key `json:"members"`
}

// MarshalJSON encodes the summary together with its randomization salt, so
// the receiver can recompute every seed. This is the v1 codec's encoder.
func (p *PPSSummary) MarshalJSON() ([]byte, error) {
	return json.Marshal(ppsWire{
		Version:  WireVersion,
		Kind:     "pps",
		Instance: p.Instance,
		Tau:      p.Tau,
		Salt:     p.parent.seeder.Salt,
		Shared:   p.parent.seeder.Shared,
		Values:   p.Sample.Values,
	})
}

// decodePPSWire reconstructs a PPSSummary from its parsed v1 wire form.
func decodePPSWire(w ppsWire, stored bool) (*PPSSummary, error) {
	if err := checkVersion("pps", w.Version); err != nil {
		return nil, err
	}
	if w.Tau <= 0 {
		return nil, fmt.Errorf("core: invalid tau %v", w.Tau)
	}
	if err := checkWireValues(w.Values, stored); err != nil {
		return nil, err
	}
	parent := &Summarizer{seeder: xhash.Seeder{Salt: w.Salt, Shared: w.Shared}}
	vals := w.Values
	if vals == nil {
		vals = map[dataset.Key]float64{}
	}
	return &PPSSummary{
		Instance: w.Instance,
		Tau:      w.Tau,
		Sample:   &sampling.WeightedSample{Values: vals, Tau: 1 / w.Tau, Family: sampling.PPS{}},
		parent:   parent,
	}, nil
}

// MarshalJSON encodes the set summary with its randomization salt.
// Members are sorted ascending: the codec contract promises deterministic
// bytes, and a slice drawn from map iteration would break it (encoding/
// json sorts map keys for the other kinds, but Members is an array).
func (s *SetSummary) MarshalJSON() ([]byte, error) {
	members := sortedKeys(s.Members)
	return json.Marshal(setWire{
		Version:  WireVersion,
		Kind:     "set",
		Instance: s.Instance,
		P:        s.P,
		Salt:     s.parent.seeder.Salt,
		Shared:   s.parent.seeder.Shared,
		Members:  members,
	})
}

// decodeSetWire reconstructs a SetSummary from its parsed v1 wire form.
func decodeSetWire(w setWire) (*SetSummary, error) {
	if err := checkVersion("set", w.Version); err != nil {
		return nil, err
	}
	if !(w.P > 0 && w.P <= 1) {
		return nil, fmt.Errorf("core: invalid sampling probability %v", w.P)
	}
	out := &SetSummary{
		Instance: w.Instance,
		P:        w.P,
		Members:  make(map[dataset.Key]bool, len(w.Members)),
		parent:   &Summarizer{seeder: xhash.Seeder{Salt: w.Salt, Shared: w.Shared}},
	}
	for _, h := range w.Members {
		out.Members[h] = true
	}
	return out, nil
}

// bottomkWire is the serialized form of a BottomKSummary. Tau encodes the
// rank-conditioning threshold; because JSON has no representation for
// +Inf, an absent (zero) tau means "unbounded": every positive key was
// retained.
type bottomkWire struct {
	Version  int                     `json:"version"`
	Kind     string                  `json:"kind"`
	Instance int                     `json:"instance"`
	Family   string                  `json:"family"`
	Tau      float64                 `json:"tau,omitempty"`
	Salt     uint64                  `json:"salt"`
	Shared   bool                    `json:"shared"`
	Values   map[dataset.Key]float64 `json:"values"`
}

// MarshalJSON encodes the bottom-k summary with its randomization salt and
// rank family, so the receiver can recompute every rank-conditioning
// inclusion probability.
func (b *BottomKSummary) MarshalJSON() ([]byte, error) {
	tau := b.Sample.Tau
	if math.IsInf(tau, 1) {
		tau = 0
	}
	return json.Marshal(bottomkWire{
		Version:  WireVersion,
		Kind:     "bottomk",
		Instance: b.Instance,
		Family:   b.Sample.Family.Name(),
		Tau:      tau,
		Salt:     b.parent.seeder.Salt,
		Shared:   b.parent.seeder.Shared,
		Values:   b.Sample.Values,
	})
}

// decodeBottomKWire reconstructs a BottomKSummary from its parsed v1 wire
// form.
func decodeBottomKWire(w bottomkWire, stored bool) (*BottomKSummary, error) {
	if err := checkVersion("bottomk", w.Version); err != nil {
		return nil, err
	}
	var fam sampling.RankFamily
	switch w.Family {
	case sampling.PPS{}.Name():
		fam = sampling.PPS{}
	case sampling.EXP{}.Name():
		fam = sampling.EXP{}
	default:
		return nil, fmt.Errorf("core: unknown rank family %q", w.Family)
	}
	tau := w.Tau
	switch {
	case tau == 0:
		tau = math.Inf(1)
	case tau < 0:
		return nil, fmt.Errorf("core: invalid rank threshold %v", tau)
	}
	if err := checkWireValues(w.Values, stored); err != nil {
		return nil, err
	}
	vals := w.Values
	if vals == nil {
		vals = map[dataset.Key]float64{}
	}
	return &BottomKSummary{
		Instance: w.Instance,
		Sample:   &sampling.WeightedSample{Values: vals, Tau: tau, Family: fam},
		parent:   &Summarizer{seeder: xhash.Seeder{Salt: w.Salt, Shared: w.Shared}},
	}, nil
}

// Summary is any decoded or freshly drawn summary the wire formats can
// carry. The interface is satisfied only by this package's summary types:
// combinability checks need access to the underlying seeder.
type Summary interface {
	// InstanceID returns the instance index the summary was drawn for.
	InstanceID() int
	// Kind returns the wire-format kind tag ("pps", "set", "bottomk",
	// "varopt").
	Kind() string
	// Size returns the number of retained keys.
	Size() int

	seederOf() xhash.Seeder
}

// InstanceID implements Summary.
func (p *PPSSummary) InstanceID() int { return p.Instance }

// InstanceID implements Summary.
func (s *SetSummary) InstanceID() int { return s.Instance }

// InstanceID implements Summary.
func (b *BottomKSummary) InstanceID() int { return b.Instance }

// Kind implements Summary.
func (p *PPSSummary) Kind() string { return "pps" }

// Kind implements Summary.
func (s *SetSummary) Kind() string { return "set" }

// Kind implements Summary.
func (b *BottomKSummary) Kind() string { return "bottomk" }

// Size implements Summary.
func (p *PPSSummary) Size() int { return p.Len() }

// Size implements Summary.
func (s *SetSummary) Size() int { return s.Len() }

// Size implements Summary.
func (b *BottomKSummary) Size() int { return b.Len() }

// Seeder returns the randomization a summary was drawn under.
func SummarySeeder(s Summary) xhash.Seeder { return s.seederOf() }

// DecodeSummary reconstructs a summary of any kind from its wire form —
// the v2 binary layout (recognized by its magic bytes) or v1 JSON
// (dispatching on the "kind" tag). It is the trust-boundary entry point
// for callers holding a complete message; services reading from a stream
// use DecodeSummaryFrom. A v2 message with trailing bytes is rejected,
// matching encoding/json's whole-document discipline.
func DecodeSummary(data []byte) (Summary, error) {
	return decodeSummary(data, false)
}

// DecodeStoredSummary is DecodeSummary for a record the store wrote
// itself (WAL and snapshot replay). It differs in one thing: the entry
// value check of the ingress decoders is not applied. A checksummed
// record was accepted by whatever ingress rules held when it was written,
// and refusing it now would leave the server unable to open its data
// directory over a value that merely yields a non-finite estimate.
func DecodeStoredSummary(data []byte) (Summary, error) {
	return decodeSummary(data, true)
}

func decodeSummary(data []byte, stored bool) (Summary, error) {
	if len(data) >= 2 && data[0] == v2Magic0 && data[1] == v2Magic1 {
		br := bufio.NewReader(bytes.NewReader(data))
		s, err := decodeSummaryV2(br, stored)
		if err != nil {
			return nil, err
		}
		if _, err := br.ReadByte(); err != io.EOF {
			return nil, fmt.Errorf("core: decoding v2 summary: trailing data after entries")
		}
		return s, nil
	}
	return decodeSummaryJSON(data, stored)
}

// decodeSummaryJSON is the v1 decoder: kind-tag dispatch over the JSON
// wire structs. Unless stored, weighted entry values get the same check
// as on the v2 paths (JSON cannot carry NaN or Inf, so in practice it
// refuses negatives).
func decodeSummaryJSON(data []byte, stored bool) (Summary, error) {
	var head struct {
		Version int    `json:"version"`
		Kind    string `json:"kind"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("core: decoding summary: %w", err)
	}
	switch head.Kind {
	case "pps":
		var w ppsWire
		if err := json.Unmarshal(data, &w); err != nil {
			return nil, fmt.Errorf("core: decoding PPS summary: %w", err)
		}
		return decodePPSWire(w, stored)
	case "set":
		var w setWire
		if err := json.Unmarshal(data, &w); err != nil {
			return nil, fmt.Errorf("core: decoding set summary: %w", err)
		}
		return decodeSetWire(w)
	case "bottomk":
		var w bottomkWire
		if err := json.Unmarshal(data, &w); err != nil {
			return nil, fmt.Errorf("core: decoding bottom-k summary: %w", err)
		}
		return decodeBottomKWire(w, stored)
	case "varopt":
		var w varoptWire
		if err := json.Unmarshal(data, &w); err != nil {
			return nil, fmt.Errorf("core: decoding varopt summary: %w", err)
		}
		return decodeVarOptWire(w, stored)
	default:
		// An unrecognized (or missing) kind on an unrecognized version is
		// a future format: surface the typed version error so callers can
		// negotiate down instead of reporting a malformed summary.
		if err := checkVersion("summary", head.Version); err != nil {
			return nil, err
		}
		if head.Kind == "" {
			return nil, fmt.Errorf("core: summary has no kind tag")
		}
		return nil, fmt.Errorf("core: unknown summary kind %q", head.Kind)
	}
}

// decodeAs narrows DecodeSummary to one concrete summary type, naming the
// expected kind in the error. It accepts any registered wire format.
func decodeAs[T Summary](data []byte, kind string) (T, error) {
	var zero T
	s, err := DecodeSummary(data)
	if err != nil {
		return zero, err
	}
	t, ok := s.(T)
	if !ok {
		return zero, fmt.Errorf("core: expected kind %q, got %q", kind, s.Kind())
	}
	return t, nil
}

// DecodePPSSummary reconstructs a PPSSummary from its wire form (v1 JSON
// or v2 binary). Summaries decoded from the same salt are combinable
// exactly like freshly drawn ones.
func DecodePPSSummary(data []byte) (*PPSSummary, error) {
	return decodeAs[*PPSSummary](data, "pps")
}

// DecodeSetSummary reconstructs a SetSummary from its wire form (v1 JSON
// or v2 binary).
func DecodeSetSummary(data []byte) (*SetSummary, error) {
	return decodeAs[*SetSummary](data, "set")
}

// DecodeBottomKSummary reconstructs a BottomKSummary from its wire form
// (v1 JSON or v2 binary).
func DecodeBottomKSummary(data []byte) (*BottomKSummary, error) {
	return decodeAs[*BottomKSummary](data, "bottomk")
}

// Combinable reports whether two decoded or freshly drawn summaries share
// the same randomization and can be queried together. Decoded summaries
// have distinct parent pointers, so this checks the seeder itself.
func Combinable(a, b interface{ seederOf() xhash.Seeder }) bool {
	return a.seederOf() == b.seederOf()
}

func (p *PPSSummary) seederOf() xhash.Seeder     { return p.parent.seeder }
func (s *SetSummary) seederOf() xhash.Seeder     { return s.parent.seeder }
func (b *BottomKSummary) seederOf() xhash.Seeder { return b.parent.seeder }
