package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/xhash"
)

// Summaries are what a dispersed system actually ships: a sample plus the
// metadata needed to recompute inclusion probabilities and seeds. This
// file holds the v1 JSON wire format (version 1 of codec.go's switch) — a
// debug and export encoding: decoding it builds the canonical in-memory
// form of summary.go at once, and encoding it marshals that form's
// entries — and the Decode* entry points, which accept either format by
// sniffing, so a caller holding v1 JSON or v2 binary bytes decodes through
// the same functions.

// wireVersion is the version of the JSON wire format this file implements.
// Binary formats carry their own version in the header (codecv2.go);
// SupportedWireVersions lists everything this build speaks.
const wireVersion = 1

// ErrUnknownVersion reports a summary whose wire-format version this
// build does not speak. Callers negotiating formats detect it with
// errors.Is and reply with an upgrade hint — the summary server maps it to
// HTTP 415 listing SupportedWireVersions — instead of a generic decode
// failure.
var ErrUnknownVersion = errors.New("core: unknown summary wire-format version")

// checkVersion validates a decoded JSON version number against wireVersion.
func checkVersion(kind string, version int) error {
	if version != wireVersion {
		return fmt.Errorf("core: %s summary version %d (supported: %v): %w",
			kind, version, SupportedWireVersions(), ErrUnknownVersion)
	}
	return nil
}

// checkWire validates a decoded JSON summary's version, then refuses a
// coordinated one. The wire structs' "shared" field survives only as this
// refusal marker: the encoders always write false.
func checkWire(kind string, version int, shared bool) error {
	if err := checkVersion(kind, version); err != nil {
		return err
	}
	if shared {
		return errCoordinated("v1")
	}
	return nil
}

// errCoordinated refuses a coordinated (shared-seed) summary in the named
// wire format. Every estimator here assumes independent per-instance
// seeds, so such a summary is not accepted in any form.
func errCoordinated(format string) error {
	return fmt.Errorf("core: decoding %s summary: coordinated (shared-seed) summaries are not supported", format)
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
		Version:  wireVersion,
		Kind:     "pps",
		Instance: p.instance,
		Tau:      p.tau,
		Salt:     p.seeder.Salt,
		Values:   p.weightedValues(),
	})
}

// decodePPSWire reconstructs a PPSSummary from its parsed v1 wire form.
func decodePPSWire(w ppsWire, stored bool) (*PPSSummary, error) {
	if err := checkWire("pps", w.Version, w.Shared); err != nil {
		return nil, err
	}
	if w.Tau <= 0 {
		return nil, fmt.Errorf("core: invalid tau %v", w.Tau)
	}
	p := newPPSSummary(xhash.Seeder{Salt: w.Salt}, w.Instance, w.Tau, w.Values)
	if _, err := checkEntries(p.entries, 16, stored); err != nil {
		return nil, err
	}
	return p, nil
}

// MarshalJSON encodes the set summary with its randomization salt; the
// members are in ascending order.
func (s *SetSummary) MarshalJSON() ([]byte, error) {
	return json.Marshal(setWire{
		Version:  wireVersion,
		Kind:     "set",
		Instance: s.instance,
		P:        s.p,
		Salt:     s.seeder.Salt,
		Members:  s.AppendKeys(make([]dataset.Key, 0, s.n)),
	})
}

// decodeSetWire reconstructs a SetSummary from its parsed v1 wire form. A
// member listed twice counts once.
func decodeSetWire(w setWire) (*SetSummary, error) {
	if err := checkWire("set", w.Version, w.Shared); err != nil {
		return nil, err
	}
	if !(w.P > 0 && w.P <= 1) {
		return nil, fmt.Errorf("core: invalid sampling probability %v", w.P)
	}
	return newSetSummary(xhash.Seeder{Salt: w.Salt}, w.Instance, w.P, w.Members), nil
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
	tau := b.tau
	if math.IsInf(tau, 1) {
		tau = 0
	}
	return json.Marshal(bottomkWire{
		Version:  wireVersion,
		Kind:     "bottomk",
		Instance: b.instance,
		Family:   b.fam.Name(),
		Tau:      tau,
		Salt:     b.seeder.Salt,
		Values:   b.weightedValues(),
	})
}

// decodeBottomKWire reconstructs a BottomKSummary from its parsed v1 wire
// form.
func decodeBottomKWire(w bottomkWire, stored bool) (*BottomKSummary, error) {
	if err := checkWire("bottomk", w.Version, w.Shared); err != nil {
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
	b := newBottomKSummary(xhash.Seeder{Salt: w.Salt}, w.Instance,
		&sampling.WeightedSample{Values: w.Values, Tau: tau, Family: fam})
	if _, err := checkEntries(b.entries, 16, stored); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeSummary reconstructs a summary of any kind from its wire form —
// the v2 binary layout (recognized by its magic bytes) or v1 JSON
// (dispatching on the "kind" tag). It is the trust-boundary entry point
// for callers holding a complete message; services reading from a stream
// use DecodeSummaryFrom. A v2 message with trailing bytes is rejected,
// matching encoding/json's whole-document discipline. The summary of a
// canonical v2 message is backed by data, which the caller must not modify
// afterwards.
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
	if hasV2Magic(data) {
		return decodeWholeV2(data, stored, "core: decoding v2 summary: trailing data after entries")
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
// expected kind in the error. It accepts either wire format.
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
