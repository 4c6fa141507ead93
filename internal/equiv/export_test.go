package equiv

// Test helpers of this package's internal tests, for its external test
// package (reference_test.go), which must import the reference checker
// that itself imports this package.
var (
	GraphOf     = graphOf
	GraphOfExpr = graphOfExpr
	GenLawExpr  = genLawExpr
)
