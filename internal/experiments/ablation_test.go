package experiments

import (
	"math"
	"strconv"
	"testing"
)

func TestAblationFamilies(t *testing.T) {
	tables := ablation()
	fam := tables[0]
	for i := range fam.Rows {
		ht := cell(fam, i, 2)
		for c := 3; c <= 5; c++ {
			if v := cell(fam, i, c); v > ht {
				t.Errorf("row %d col %d: optimal estimator variance %v above HT %v", i, c, v, ht)
			}
		}
	}
	// First block (p=0.2): L best on equal data, U best on disjoint, Uas
	// best of all on the (v,0) profile it prioritizes.
	if l, u := cell(fam, 0, 3), cell(fam, 0, 4); l > u {
		t.Errorf("equal data: L %v above U %v", l, u)
	}
	if l, u := cell(fam, 3, 3), cell(fam, 3, 4); u > l {
		t.Errorf("disjoint data: U %v above L %v", u, l)
	}
	if u, uas := cell(fam, 3, 4), cell(fam, 3, 5); uas > u {
		t.Errorf("disjoint (v1,0) data: Uas %v above symmetric U %v", uas, u)
	}
}

func TestAblationSeeds(t *testing.T) {
	tables := ablation()
	seeds := tables[1]
	for i := range seeds.Rows {
		p := cell(seeds, i, 0)
		data := seeds.Rows[i][1]
		l := cell(seeds, i, 2)
		u := cell(seeds, i, 3)
		ht := cell(seeds, i, 4)
		if l > ht || u > ht {
			t.Errorf("row %d: known-seed estimator above HT (L=%v U=%v HT=%v)", i, l, u, ht)
		}
		unknown := seeds.Rows[i][5]
		if p+p < 1 {
			if unknown != "infeasible" {
				t.Errorf("row %d: expected infeasible at p=%v, got %q", i, p, unknown)
			}
			continue
		}
		uv, err := strconv.ParseFloat(unknown, 64)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		// The known-seed U estimator never loses to the forced
		// unknown-seed estimator; L additionally wins on (1,1).
		if u > uv+1e-9 {
			t.Errorf("row %d: known-seed U %v above unknown-seed %v", i, u, uv)
		}
		if data == "(1,1)" && l > uv+1e-9 {
			t.Errorf("row %d: known-seed L %v above unknown-seed %v on (1,1)", i, l, uv)
		}
	}
}

func TestAblationRecurrence(t *testing.T) {
	tables := ablation()
	rec := tables[2]
	prevFrac := math.Inf(1)
	for i := range rec.Rows {
		a1 := cell(rec, i, 1)
		htc := cell(rec, i, 2)
		frac := cell(rec, i, 3)
		if a1 > htc {
			t.Errorf("row %d: alpha1 %v exceeds HT coefficient %v (Lemma 4.2)", i, a1, htc)
		}
		if frac > prevFrac {
			t.Errorf("row %d: alpha1/p^-r fraction increasing (%v after %v)", i, frac, prevFrac)
		}
		prevFrac = frac
		if ar := cell(rec, i, 4); ar < 1 {
			t.Errorf("row %d: A_r = %v below 1", i, ar)
		}
	}
}
