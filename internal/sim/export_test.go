package sim

// Test-only hooks for reference_test.go. Its tests compare this package
// with internal/oracle, which imports sim, so they live in package sim_test
// and reach the unexported pieces they pin through these names.
var (
	ForceScalar   = forceScalar
	FourCellFault = fourCellFault
	CanClassCache = canClassCache
)
