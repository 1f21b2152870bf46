package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sampling"
	"repro/internal/simdata"
	"repro/internal/xhash"
)

// fixtureSummaries builds one summary of every kind (bottom-k under both
// rank families) for one summarizer.
func fixtureSummaries(s *Summarizer) []Summary {
	m := simdata.Generate(simdata.ScaledTraffic(120))
	members := make(map[dataset.Key]bool, len(m.Instances[0]))
	for h := range m.Instances[0] {
		members[h] = true
	}
	return []Summary{
		s.SummarizePPSExpectedSize(0, m.Instances[0], 60),
		s.SummarizeSet(1, members, 0.4),
		s.SummarizeBottomK(2, m.Instances[1], 40, sampling.PPS{}),
		s.SummarizeBottomK(3, m.Instances[1], 40, sampling.EXP{}),
		// Unbounded bottom-k threshold: fewer keys than k.
		s.SummarizeBottomK(4, dataset.Instance{7: 5, 9: 3}, 10, sampling.PPS{}),
	}
}

// queryBits reduces a summary to the float bits every codec must
// preserve: the deterministic subset-sum estimate (weighted kinds) or the
// HT cardinality estimate (sets).
func queryBits(t *testing.T, s Summary) float64 {
	t.Helper()
	switch v := s.(type) {
	case *PPSSummary:
		return v.SubsetSum(nil)
	case *bottomKSummary:
		return v.SubsetSum(nil)
	case *SetSummary:
		return float64(v.Size()) / v.SetP()
	}
	t.Fatalf("unknown summary type %T", s)
	return 0
}

// TestWireVersionVocabulary: the build speaks exactly versions 1 and 2,
// maps content types to them, and refuses any other version — named by a
// content type or asked of the encoders — with the typed error.
func TestWireVersionVocabulary(t *testing.T) {
	if got := SupportedWireVersions(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("SupportedWireVersions = %v, want [1 2]", got)
	}
	for ct, want := range map[string]int{
		ContentTypeJSON:                   1,
		"application/json; charset=utf-8": 1,
		ContentTypeV2:                     2,
	} {
		if v, named, err := WireVersionByContentType(ct); !named || err != nil || v != want {
			t.Errorf("WireVersionByContentType(%q) = (%d, %v, %v), want (%d, true, nil)", ct, v, named, err, want)
		}
	}
	for _, ct := range []string{"", "text/csv", "application/x-summary-", "application/x-summary-v-3"} {
		if v, named, err := WireVersionByContentType(ct); named || err != nil {
			t.Errorf("WireVersionByContentType(%q) = (%d, %v, %v), want not a wire type", ct, v, named, err)
		}
	}
	const want = "core: summary wire version 7 (supported: [1 2]): core: unknown summary wire-format version"
	if _, _, err := WireVersionByContentType("application/x-summary-v7"); err == nil || err.Error() != want {
		t.Errorf("WireVersionByContentType(v7): %v, want %s", err, want)
	}
	sum := fixtureSummaries(NewSummarizer(99))[0]
	if _, err := EncodeSummary(sum, 7); err == nil || err.Error() != want {
		t.Errorf("EncodeSummary(s, 7): %v, want %s", err, want)
	}
	if err := EncodeSummaryTo(io.Discard, sum, 7); err == nil || err.Error() != want {
		t.Errorf("EncodeSummaryTo(w, s, 7): %v, want %s", err, want)
	}
	if _, err := DecodeSummaryVersionFrom(bytes.NewReader(nil), 7); err == nil || err.Error() != want {
		t.Errorf("DecodeSummaryVersionFrom(r, 7): %v, want %s", err, want)
	}
}

// TestCrossCodecEquivalence is the tentpole property: for every summary
// kind × rank family, decode(v2(encode(s))) and decode(v1(encode(s)))
// answer queries with bit-identical floats and carry the same seeder — the
// codecs change bytes, never estimates.
func TestCrossCodecEquivalence(t *testing.T) {
	for _, salt := range []uint64{2011, 7, 0xDEADBEEF} {
		for _, sum := range fixtureSummaries(NewSummarizer(salt)) {
			v1, err := EncodeSummary(sum, 1)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := EncodeSummary(sum, 2)
			if err != nil {
				t.Fatal(err)
			}
			d1, err := DecodeSummary(v1)
			if err != nil {
				t.Fatalf("%s: decoding v1: %v", sum.Kind(), err)
			}
			d2, err := DecodeSummary(v2)
			if err != nil {
				t.Fatalf("%s: decoding v2: %v", sum.Kind(), err)
			}
			if SummarySeeder(d1) != SummarySeeder(d2) || SummarySeeder(d1) != SummarySeeder(sum) {
				t.Fatalf("%s: seeder drifted through a codec", sum.Kind())
			}
			if d1.Kind() != d2.Kind() || d1.InstanceID() != d2.InstanceID() || d1.Size() != d2.Size() {
				t.Fatalf("%s: metadata drifted: v1 (%s,%d,%d) vs v2 (%s,%d,%d)", sum.Kind(),
					d1.Kind(), d1.InstanceID(), d1.Size(), d2.Kind(), d2.InstanceID(), d2.Size())
			}
			b0, b1, b2 := queryBits(t, sum), queryBits(t, d1), queryBits(t, d2)
			if b0 != b1 || b1 != b2 {
				t.Fatalf("%s: query bits differ: original %v, via v1 %v, via v2 %v",
					sum.Kind(), b0, b1, b2)
			}
		}
	}
}

// TestDecodeRefusesCoordinated: a coordinated (shared-seed) summary — v1
// "shared": true, or v2 flag bit 0 — is refused by every decoder with its
// own message, for every kind, and never decodes as an independent one.
// The v1 encoders still write "shared":false, which decodes.
func TestDecodeRefusesCoordinated(t *testing.T) {
	const (
		wantV1 = "core: decoding v1 summary: coordinated (shared-seed) summaries are not supported"
		wantV2 = "core: decoding v2 summary: coordinated (shared-seed) summaries are not supported"
	)
	s := NewSummarizer(7)
	for _, sum := range fixtureSummaries(s) {
		v1, err := EncodeSummary(sum, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(v1, []byte(`"shared":false`)) {
			t.Fatalf("%s: v1 encoding lacks \"shared\":false: %s", sum.Kind(), v1)
		}
		coordV1 := bytes.Replace(v1, []byte(`"shared":false`), []byte(`"shared":true`), 1)
		if _, err := DecodeSummary(coordV1); err == nil || err.Error() != wantV1 {
			t.Errorf("%s: DecodeSummary(v1 shared): %v, want %s", sum.Kind(), err, wantV1)
		}
		if _, err := DecodeSummaryVersionFrom(bytes.NewReader(coordV1), 1); err == nil || err.Error() != wantV1 {
			t.Errorf("%s: DecodeSummaryVersionFrom(v1 shared, 1): %v, want %s", sum.Kind(), err, wantV1)
		}

		v2, err := EncodeSummary(sum, 2)
		if err != nil {
			t.Fatal(err)
		}
		if v2[4] != 0 {
			t.Fatalf("%s: v2 encoder wrote flags %#02x", sum.Kind(), v2[4])
		}
		coordV2 := append([]byte(nil), v2...)
		coordV2[4] = v2FlagCoordinated
		for name, decode := range map[string]func([]byte) (Summary, error){
			"DecodeSummary":       DecodeSummary,
			"DecodeStoredSummary": DecodeStoredSummary,
			"DecodeSummaryViewFrom": func(b []byte) (Summary, error) {
				return DecodeSummaryViewFrom(bytes.NewReader(b))
			},
			"DecodeSummaryVersionFrom": func(b []byte) (Summary, error) {
				return DecodeSummaryVersionFrom(bytes.NewReader(b), 2)
			},
		} {
			if _, err := decode(coordV2); err == nil || err.Error() != wantV2 {
				t.Errorf("%s: %s(v2 bit 0): %v, want %s", sum.Kind(), name, err, wantV2)
			}
		}
		// Any other bit is undefined, with bit 0 set or not.
		coordV2[4] = 0x81
		if _, err := DecodeSummary(coordV2); err == nil || err.Error() != "core: decoding v2 summary: undefined flag bits 0x81" {
			t.Errorf("%s: DecodeSummary(v2 flags 0x81): %v", sum.Kind(), err)
		}
	}
}

// TestCrossCodecMultiSummaryQueries: two-summary estimators over
// v2-decoded summaries reproduce the v1-decoded bits exactly — the
// combinability contract survives the binary format.
func TestCrossCodecMultiSummaryQueries(t *testing.T) {
	m := simdata.Generate(simdata.ScaledTraffic(150))
	s := NewSummarizer(42)
	p1 := s.SummarizePPSExpectedSize(0, m.Instances[0], 70)
	p2 := s.SummarizePPSExpectedSize(1, m.Instances[1], 70)

	reencode := func(p *PPSSummary, version int) *PPSSummary {
		data, err := EncodeSummary(p, version)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodePPSSummary(data)
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}
	wantEst, err := MaxDominanceReaders(reencode(p1, 1), reencode(p2, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	gotEst, err := MaxDominanceReaders(reencode(p1, 2), reencode(p2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if wantEst != gotEst {
		t.Fatalf("max-dominance over v2-decoded summaries %+v != v1-decoded %+v", gotEst, wantEst)
	}
}

// TestV2EncodeDeterministic: equal summaries encode to equal bytes (map
// iteration order must not leak into the wire).
func TestV2EncodeDeterministic(t *testing.T) {
	for _, sum := range fixtureSummaries(NewSummarizer(2011)) {
		a, err := EncodeSummary(sum, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			b, err := EncodeSummary(sum, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: two encodings of the same summary differ", sum.Kind())
			}
		}
	}
}

// TestV2OversizedCountNoOverAllocation: a 30-byte payload claiming 2^60
// entries must fail on the missing entries without attempting to reserve
// memory for the claim.
func TestV2OversizedCountNoOverAllocation(t *testing.T) {
	sum := NewSummarizer(1).SummarizePPS(0, dataset.Instance{1: 5}, 2)
	data, err := EncodeSummary(sum, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the entry count (the varint right before the single
	// 16-byte entry) to a colossal claim and truncate the entries.
	head := data[:len(data)-16-1] // strip the one-byte count and the single entry
	var cnt [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(cnt[:], 1<<60)
	hostile := append(append([]byte{}, head...), cnt[:n]...)
	if _, err := DecodeSummary(hostile); err == nil {
		t.Fatal("decoding a truncated 2^60-entry claim succeeded")
	}
}

// TestDecodeSummaryFromStreams: DecodeSummaryFrom sniffs both formats off
// a reader, reports the version, and the v2 path works from a reader that
// delivers one byte at a time — the streaming-decode contract.
func TestDecodeSummaryFromStreams(t *testing.T) {
	sum := NewSummarizer(3).SummarizePPS(0, dataset.Instance{10: 4, 20: 9, 30: 2}, 3)
	for version := 1; version <= 2; version++ {
		data, err := EncodeSummary(sum, version)
		if err != nil {
			t.Fatal(err)
		}
		dec, gotVer, err := DecodeSummaryFrom(&oneByteReader{data: data})
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		if gotVer != version {
			t.Fatalf("sniffed version %d, want %d", gotVer, version)
		}
		if queryBits(t, dec) != queryBits(t, Summary(sum)) {
			t.Fatalf("v%d: query bits drifted through the stream", version)
		}
	}
	// Trailing bytes after a complete v2 message: a stream reader leaves
	// them; the whole-message entry point rejects them.
	v2, _ := EncodeSummary(sum, 2)
	if _, err := DecodeSummary(append(v2, 0xFF)); err == nil {
		t.Fatal("DecodeSummary accepted trailing bytes after a v2 message")
	}
}

// oneByteReader delivers one byte per Read call — the most hostile
// chunking a stream can offer.
type oneByteReader struct{ data []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	p[0] = r.data[0]
	r.data = r.data[1:]
	return 1, nil
}

// TestWireV2PayloadRatio pins the acceptance bound: for a 1M-entry
// bottom-k summary over realistic 64-bit keys and full-precision weights,
// the v2 binary payload is at most 40% of the v1 JSON bytes, and both
// payloads decode to summaries with identical query bits.
func TestWireV2PayloadRatio(t *testing.T) {
	sum := millionEntryBottomK(t)
	v1, err := EncodeSummary(sum, 1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := EncodeSummary(sum, 2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(v2)) / float64(len(v1))
	t.Logf("1M-entry bottom-k: v1 %d bytes, v2 %d bytes (%.1f%%)", len(v1), len(v2), 100*ratio)
	if ratio > 0.40 {
		t.Fatalf("v2 payload is %.1f%% of v1, want ≤ 40%%", 100*ratio)
	}
	d2, err := DecodeSummary(v2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Size() != sum.Size() {
		t.Fatalf("v2 decode kept %d of %d entries", d2.Size(), sum.Size())
	}
}

var (
	millionOnce sync.Once
	millionSum  *bottomKSummary
)

// millionEntryBottomK synthesizes a 1M-entry bottom-k summary without
// running the sampler over ≥1M keys: full-width mixed keys (what hashed
// flow identifiers look like) and full-precision weights (what
// aggregated rates look like), shared between the payload test and the
// codec benchmarks.
func millionEntryBottomK(tb testing.TB) *bottomKSummary {
	tb.Helper()
	millionOnce.Do(func() {
		const n = 1 << 20
		vals := make(map[dataset.Key]float64, n)
		for i := uint64(0); i < n; i++ {
			h := xhash.Mix64(i ^ 0xA5A5A5A5A5A5A5A5)
			vals[dataset.Key(h)] = 1 + float64(h%1_000_003)/997.0
		}
		millionSum = newBottomKSummary(NewSummarizer(2011).seeder, 0,
			&sampling.WeightedSample{Entries: weightedEntries(vals), Tau: 0.25, Family: sampling.PPS{}})
	})
	return millionSum
}

// TestV2StreamingDecodeBoundedBuffer: decoding a large v2 payload from a
// chunked reader (no bytes.Reader fast path) succeeds, and what it holds
// afterwards is the payload's bytes and nothing beside them.
func TestV2StreamingDecodeBoundedBuffer(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-entry payload")
	}
	sum := millionEntryBottomK(t)
	data, err := EncodeSummary(sum, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSummaryViewFrom(&chunkReader{data: data, chunk: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Size() != sum.Size() {
		t.Fatalf("chunked decode kept %d of %d entries", dec.Size(), sum.Size())
	}
	if math.Float64bits(queryBits(t, dec)) != math.Float64bits(queryBits(t, Summary(sum))) {
		t.Fatal("chunked decode drifted query bits")
	}
	if !bytes.Equal(dec.stored().data, data) {
		t.Fatal("chunked decode holds other bytes than the payload")
	}
}

// chunkReader yields at most chunk bytes per Read, like a network socket.
type chunkReader struct {
	data  []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(min(len(p), r.chunk), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// TestEncodeToMatchesEncode: the streaming encoder contract — for both
// wire versions and every summary kind, EncodeSummaryTo writes exactly the
// bytes EncodeSummary returns, regardless of the destination writer's type
// (buffered or not).
func TestEncodeToMatchesEncode(t *testing.T) {
	for _, version := range SupportedWireVersions() {
		for _, sum := range fixtureSummaries(NewSummarizer(99)) {
			want, err := EncodeSummary(sum, version)
			if err != nil {
				t.Fatalf("v%d EncodeSummary(%s): %v", version, sum.Kind(), err)
			}
			// A plain buffer and an opaque writer.
			var direct bytes.Buffer
			if err := EncodeSummaryTo(&direct, sum, version); err != nil {
				t.Fatalf("v%d EncodeSummaryTo(buffer, %s): %v", version, sum.Kind(), err)
			}
			var opaque bytes.Buffer
			if err := EncodeSummaryTo(onlyWriter{&opaque}, sum, version); err != nil {
				t.Fatalf("v%d EncodeSummaryTo(opaque, %s): %v", version, sum.Kind(), err)
			}
			if !bytes.Equal(direct.Bytes(), want) || !bytes.Equal(opaque.Bytes(), want) {
				t.Fatalf("v%d EncodeSummaryTo(%s) diverges from EncodeSummary (%d/%d vs %d bytes)",
					version, sum.Kind(), direct.Len(), opaque.Len(), len(want))
			}
		}
	}
}

// onlyWriter hides every method but Write, so EncodeSummaryTo cannot
// type-switch its way around the generic path.
type onlyWriter struct{ w io.Writer }

func (o onlyWriter) Write(p []byte) (int, error) { return o.w.Write(p) }

// TestEncodeToPropagatesWriteErrors: a failing destination surfaces the
// error instead of silently truncating.
func TestEncodeToPropagatesWriteErrors(t *testing.T) {
	sum := fixtureSummaries(NewSummarizer(99))[0]
	for _, version := range SupportedWireVersions() {
		if err := EncodeSummaryTo(failingWriter{}, sum, version); err == nil {
			t.Fatalf("v%d EncodeSummaryTo to a failing writer returned nil", version)
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }
