package dataset

// FigureFive returns the worked example data set of Figure 5(A): three
// instances over keys 1..6. It is used by cmd/figures -fig 5, the
// quickstart example, and the tests that reproduce the paper's worked
// aggregates (max-dominance over even keys of instances {1,2} is 40; the
// L1 distance between instances {2,3} over keys {1,2,3} is 18).
func FigureFive() *Matrix {
	return NewMatrix(
		Instance{1: 15, 3: 10, 4: 5, 5: 10, 6: 10},
		Instance{1: 20, 2: 10, 3: 12, 4: 20, 6: 10},
		Instance{1: 10, 2: 15, 3: 15, 5: 15, 6: 10},
	)
}

// FigureFiveSharedSeeds returns the shared seed vector u of Figure 5(B)
// (one seed per key 1..6, used for consistent / coordinated PPS ranks).
func FigureFiveSharedSeeds() map[Key]float64 {
	return map[Key]float64{1: 0.22, 2: 0.75, 3: 0.07, 4: 0.92, 5: 0.55, 6: 0.37}
}

// FigureFiveIndependentSeeds returns the per-instance seed vectors u1,u2,u3
// of Figure 5(B) for independent PPS ranks.
func FigureFiveIndependentSeeds() []map[Key]float64 {
	return []map[Key]float64{
		{1: 0.22, 2: 0.75, 3: 0.07, 4: 0.92, 5: 0.55, 6: 0.37},
		{1: 0.47, 2: 0.58, 3: 0.71, 4: 0.84, 5: 0.25, 6: 0.32},
		{1: 0.63, 2: 0.92, 3: 0.08, 4: 0.59, 5: 0.32, 6: 0.80},
	}
}
