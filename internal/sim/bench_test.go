package sim

import (
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// The benchmarks mirror the acceptance metric of the compiled-schedule
// layer: certification throughput of a march test over a whole fault list
// under the default exhaustive configuration. scenarios/op reports the
// nominal scenario space (placements × inits × order combinations summed
// over the list), so scenarios/sec = scenarios/op ÷ ns/op × 1e9.

func scenarioSpace(tb testing.TB, t march.Test, faults []linked.Fault) int {
	tb.Helper()
	s, err := NewSchedule(t, DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	total := 0
	for _, f := range faults {
		n, err := s.ScenarioCount(f)
		if err != nil {
			tb.Fatal(err)
		}
		total += n
	}
	return total
}

func benchSimulate(b *testing.B, t march.Test, faults []linked.Fault, cfg Config) {
	b.Helper()
	scenarios := scenarioSpace(b, t, faults)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Simulate(t, faults, cfg)
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
	}
	// Reported after ResetTimer, which clears reported metrics.
	b.ReportMetric(float64(scenarios), "scenarios/op")
}

// benchConfigs pairs the two execution engines: the default bit-parallel
// lanes and the forced scalar path. Benchmarking both keeps the lane
// speedup a number the bench log shows directly.
func benchConfigs() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"lanes", DefaultConfig()},
		{"scalar", forceScalar(DefaultConfig())},
	}
}

// benchFullCoverage times the from-scratch coverage scan: Covers on a
// checkpoint of the empty test, which resumes the whole test from boundary 0
// and stops at the first miss.
func benchFullCoverage(b *testing.B, t march.Test, faults []linked.Fault, wantFull bool) {
	b.Helper()
	s, err := NewSchedule(march.Test{Name: "empty"}, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cp, err := s.Checkpoint(faults)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full, _, err := cp.Covers(t)
		if err != nil {
			b.Fatal(err)
		}
		if full != wantFull {
			b.Fatalf("full=%v, want %v", full, wantFull)
		}
	}
}

func BenchmarkSimulate(b *testing.B) {
	for _, cc := range benchConfigs() {
		b.Run(cc.name, func(b *testing.B) {
			b.Run("MarchSL/List1", func(b *testing.B) { benchSimulate(b, march.MarchSL, faultlist.List1(), cc.cfg) })
			b.Run("MarchABL/List1", func(b *testing.B) { benchSimulate(b, march.MarchABL, faultlist.List1(), cc.cfg) })
			b.Run("MarchABL1/List2", func(b *testing.B) { benchSimulate(b, march.MarchABL1, faultlist.List2(), cc.cfg) })
			b.Run("MarchLF1/List2", func(b *testing.B) { benchSimulate(b, march.MarchLF1, faultlist.List2(), cc.cfg) })
		})
	}
}

func BenchmarkFullCoverage(b *testing.B) {
	b.Run("MarchSL/List1", func(b *testing.B) { benchFullCoverage(b, march.MarchSL, faultlist.List1(), true) })
	b.Run("MarchSS/List1", func(b *testing.B) { benchFullCoverage(b, march.MarchSS, faultlist.List1(), false) })
	b.Run("MarchABL1/List2", func(b *testing.B) { benchFullCoverage(b, march.MarchABL1, faultlist.List2(), true) })
}

// The compile step itself: must stay negligible next to a single fault
// simulation for the once-per-candidate amortization to hold.
func BenchmarkNewSchedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSchedule(march.MarchSL, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLF3 is the linked fault BenchmarkDetectsFaultScheduled times: a
// March SL-detectable LF3 pair.
func benchLF3(tb testing.TB) linked.Fault {
	tb.Helper()
	lf, err := linked.NewLF3(fp.MustParseFP("<0w1;0/1/->"), fp.MustParseFP("<0w1;1/0/->"))
	if err != nil {
		tb.Fatal(err)
	}
	return lf
}

func benchDetectsFault(b *testing.B, cfg Config) {
	b.Helper()
	lf := benchLF3(b)
	s, err := NewSchedule(march.MarchSL, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, _, err := s.DetectsFault(lf)
		if err != nil {
			b.Fatal(err)
		}
		if !det {
			b.Fatal("March SL must detect the LF3")
		}
	}
}

func BenchmarkDetectsFaultScheduled(b *testing.B) {
	for _, cc := range benchConfigs() {
		b.Run(cc.name, func(b *testing.B) { benchDetectsFault(b, cc.cfg) })
	}
}
