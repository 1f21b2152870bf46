package lint

// Deterministic packages: everything whose output feeds wire encodings,
// samples, or golden experiment tables. Map iteration order
// must never be observable here.
var deterministicPackages = []string{
	"internal/core",
	"internal/experiments",
	"internal/sampling",
	"internal/store",
}

// Float-accumulation scope: the deterministic set plus the estimator
// package (pure formulas today, but any future loop there sums floats).
var floatSumPackages = append(append([]string{}, deterministicPackages...),
	"internal/estimator",
)

// DefaultAnalyzers is the suite cmd/summarylint runs, configured for
// this repo's packages and lock hierarchy.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		MapOrder{Packages: deterministicPackages},
		FloatSum{Packages: floatSumPackages},
		DefaultLockOrder(),
		HotAlloc{},
		NilGuard{},
	}
}
