package estimator

// The §8.1 distinct count over two independently sampled sets with known
// seeds, in closed form: each key of the union of the samples falls into
// one outcome category, and the HT and OR^(L) estimates of |N1 ∪ N2| are
// linear in the category tallies.

// Category classifies a key's outcome when two binary instances are
// sampled independently with known seeds (§8.1). The subscripts follow the
// paper: 1 means "known to be in the set", 0 means "known to be out",
// ? means "unknown" (the seed exceeded the sampling threshold, so absence
// from the sample carries no information).
type Category int

// Categories of §8.1.
const (
	// catNone: not sampled anywhere and no seed reveals anything — or the
	// seeds reveal the key is in neither set. Estimate 0 either way.
	catNone Category = iota
	// cat1Q: in sample 1; seed 2 above threshold (membership 2 unknown).
	cat1Q
	// catQ1: in sample 2; seed 1 above threshold (membership 1 unknown).
	catQ1
	// cat11: in both samples.
	cat11
	// cat10: in sample 1; seed 2 below threshold, so absence from sample 2
	// proves non-membership in set 2.
	cat10
	// cat01: in sample 2; seed 1 proves non-membership in set 1.
	cat01
)

// Categorize classifies one key given its sample memberships, seeds, and
// per-instance sampling probabilities.
func Categorize(inS1, inS2 bool, u1, u2, p1, p2 float64) Category {
	switch {
	case inS1 && inS2:
		return cat11
	case inS1 && u2 > p2:
		return cat1Q
	case inS1:
		return cat10
	case inS2 && u1 > p1:
		return catQ1
	case inS2:
		return cat01
	default:
		return catNone
	}
}

// DistinctCounts tallies the §8.1 categories over the selected keys.
type DistinctCounts struct {
	F1Q, FQ1, F11, F10, F01 int
}

// Add increments the tally for one categorized key.
func (c *DistinctCounts) Add(cat Category) {
	switch cat {
	case cat1Q:
		c.F1Q++
	case catQ1:
		c.FQ1++
	case cat11:
		c.F11++
	case cat10:
		c.F10++
	case cat01:
		c.F01++
	}
}

// Sampled returns the number of keys present in at least one sample.
func (c *DistinctCounts) Sampled() int {
	return c.F1Q + c.FQ1 + c.F11 + c.F10 + c.F01
}

// DistinctEstimator estimates D = |(N1 ∪ N2) ∩ A| from the category
// counts, for sampling probabilities P1, P2.
type DistinctEstimator struct {
	P1, P2 float64
}

// HT is the inverse-probability estimate D̂^(HT) of §8.1: only keys whose
// membership in both sets is fully determined contribute.
func (e DistinctEstimator) HT(c DistinctCounts) float64 {
	return float64(c.F11+c.F10+c.F01) / (e.P1 * e.P2)
}

// L is the partial-information estimate D̂^(L) of §8.1, the sum-aggregate
// of the per-key OR^(L) estimator.
func (e DistinctEstimator) L(c DistinctCounts) float64 {
	q := e.P1 + e.P2 - e.P1*e.P2
	return float64(c.F1Q+c.FQ1+c.F11)/q +
		float64(c.F10)/(e.P1*q) +
		float64(c.F01)/(e.P2*q)
}

// VarHT returns VAR[D̂^(HT)] = D(1/(p1p2) − 1) for a union of size D
// (§8.1).
func (e DistinctEstimator) VarHT(d float64) float64 {
	return d * (1/(e.P1*e.P2) - 1)
}

// VarL returns VAR[D̂^(L)] for a union of size D and Jaccard coefficient J
// (§8.1): D·J·VAR[OR^L|(1,1)] + D(1−J)·VAR[OR^L|(1,0)].
func (e DistinctEstimator) VarL(d, j float64) float64 {
	return d*j*VarORL11(e.P1, e.P2) + d*(1-j)*VarORL10(e.P1, e.P2)
}
