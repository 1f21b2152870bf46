package main

import (
	"math"
	"sort"
)

// The timed section is cut into slices of about sliceSeconds. The sandbox
// is a few cores of a shared host: for seconds to a minute at a time a
// neighbour takes part of the machine, which only ever slows the server
// down. The end-to-end figures are therefore taken over the quiet fifth of
// a run — the fifth of its slices in which the headline work went fastest —
// so that they say what the program does when it has the machine, and a
// neighbour's burst does not read as a regression. A change to the program
// moves the quiet slices as it moves every other one. What the rule hides
// is a stall of the program's own that spares one second in five; the
// whole-run figures are in the run record beside the quiet ones for that.
const (
	sliceSeconds = 1.0
	quietShare   = 5 // one slice in quietShare is quiet
)

// sample is one timed request. Times are nanoseconds on the run's
// monotonic clock. due is when the request was due to be sent (equal to
// sent in a closed loop), so end-due is the latency a user waited.
type sample struct {
	class opClass
	due   int64
	sent  int64
	end   int64
	units float64 // work acknowledged: pairs for an ingest, 1 otherwise
	ok    bool
}

func (s sample) latencyMS() float64 { return float64(s.end-s.due) / 1e6 }

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the midpoint median: the mean of the two middle values for an
// even count.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// slicing is a timed section [t0,t1) cut into n equal-time slices.
type slicing struct {
	t0, t1 int64
	n      int
}

// newSlicing cuts [t0,t1) into as many slices as it has whole multiples of
// sliceSeconds (at least one).
func newSlicing(t0, t1 int64) slicing {
	n := int(float64(t1-t0) / (sliceSeconds * 1e9))
	return slicing{t0: t0, t1: t1, n: max(n, 1)}
}

func (sl slicing) width() float64 { return float64(sl.t1-sl.t0) / float64(sl.n) }

// rates credits each sample's units to the slices it overlaps in
// proportion to the overlap (so a 140 ms ingest straddling a boundary is
// not all-or-nothing for either side) and returns each slice's
// units/second.
func (sl slicing) rates(samples []sample) []float64 {
	rates := make([]float64, sl.n)
	if sl.t1 <= sl.t0 {
		return rates
	}
	t0, t1, width := float64(sl.t0), float64(sl.t1), sl.width()
	for _, s := range samples {
		if !s.ok || s.end <= s.sent {
			continue
		}
		lo, hi := math.Max(float64(s.sent), t0), math.Min(float64(s.end), t1)
		if hi <= lo {
			continue
		}
		perNS := s.units / float64(s.end-s.sent)
		for i := int((lo - t0) / width); i < sl.n; i++ {
			a := t0 + float64(i)*width
			b := a + width
			if a >= hi {
				break
			}
			rates[i] += perNS * (math.Min(b, hi) - math.Max(a, lo)) / (width / 1e9)
		}
	}
	return rates
}

// quietSlices marks the fifth (rounded up) of the slices with the highest
// rates; equal rates go to the earlier slice.
func quietSlices(rates []float64) []bool {
	order := make([]int, len(rates))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rates[order[a]] > rates[order[b]] })
	quiet := make([]bool, len(rates))
	for _, i := range order[:(len(rates)+quietShare-1)/quietShare] {
		quiet[i] = true
	}
	return quiet
}

// markedOf returns the values of v at the marked positions.
func markedOf(v []float64, marked []bool) []float64 {
	var out []float64
	for i, x := range v {
		if marked[i] {
			out = append(out, x)
		}
	}
	return out
}

// latencyStats is the latency summary of one group of samples.
type latencyStats struct {
	n   int     // samples it is over
	p50 float64 // ms
	p99 float64 // ms; see tail
}

// latency summarizes the samples that completed inside the marked slices
// (nil: inside any slice).
func (sl slicing) latency(samples []sample, marked []bool) latencyStats {
	var ms []float64
	width := sl.width()
	for _, s := range samples {
		if !s.ok || s.end < sl.t0 || s.end >= sl.t1 {
			continue
		}
		if i := min(int(float64(s.end-sl.t0)/width), sl.n-1); marked == nil || marked[i] {
			ms = append(ms, s.latencyMS())
		}
	}
	sort.Float64s(ms)
	return latencyStats{n: len(ms), p50: percentile(ms, 0.5), p99: tail(ms)}
}

// tailBeyond is how many samples a reported tail percentile keeps beyond
// itself: fewer, and the figure is a handful of requests' accident.
const tailBeyond = 10

// tail is the nearest-rank p99 of sorted or, when that would leave fewer
// than tailBeyond samples beyond it (under 1000 samples: ingest_raw's 100
// 000-pair requests), the highest percentile that leaves that many, and
// never less than the median.
func tail(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(0.99*float64(n))) - 1
	i = min(i, n-1-tailBeyond)
	i = max(i, (n-1)/2)
	return sorted[i]
}

// filter returns the samples keep accepts.
func filter(samples []sample, keep func(sample) bool) []sample {
	var out []sample
	for _, s := range samples {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// rms is the root mean square of v, summed in slice order.
func rms(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum / float64(len(v)))
}

// meanVar returns the mean and the (n-1) sample variance of v.
func meanVar(v []float64) (mean, variance float64) {
	if len(v) == 0 {
		return 0, 0
	}
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	if len(v) < 2 {
		return mean, 0
	}
	for _, x := range v {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(v)-1)
}
