package word

import (
	"testing"

	"marchgen/internal/fp"
	"marchgen/internal/march"
)

// FuzzWordBackgrounds pins the standard background set across the whole
// supported width range [1,64]: the set has the documented 1+ceil(log2(w))
// size, renders and round-trips through its string form, separates every
// distinct bit pair (the property that restores bit-oriented coverage), and
// — on small widths, where simulation is cheap — detection coverage is
// monotone in the background set: adding a background never loses a fault.
func FuzzWordBackgrounds(f *testing.F) {
	for _, w := range []int{1, 2, 3, 4, 5, 8, 15, 16, 33, 64} {
		f.Add(w)
	}
	f.Add(0)
	f.Add(-7)
	f.Add(1 << 20)

	f.Fuzz(func(t *testing.T, width int) {
		if width < 1 {
			if _, err := Backgrounds(width); err == nil {
				t.Fatalf("Backgrounds(%d) accepted an invalid width", width)
			}
			return
		}
		if width > 64 {
			t.Skip("width beyond the modeled range")
		}
		bgs, err := Backgrounds(width)
		if err != nil {
			t.Fatalf("Backgrounds(%d): %v", width, err)
		}
		wantLen := 1
		for stride := 1; stride < width; stride *= 2 {
			wantLen++
		}
		if len(bgs) != wantLen {
			t.Fatalf("width %d: %d backgrounds, want %d", width, len(bgs), wantLen)
		}
		for i, bg := range bgs {
			if err := bg.Validate(); err != nil {
				t.Fatalf("width %d background %d: %v", width, i, err)
			}
			if len(bg) != width {
				t.Fatalf("width %d background %d has %d bits", width, i, len(bg))
			}
			// Round-trip through the rendered form.
			s := bg.String()
			if len(s) != width {
				t.Fatalf("width %d background %d renders %d chars", width, i, len(s))
			}
			for j, c := range s {
				var v fp.Value
				switch c {
				case '0':
					v = fp.V0
				case '1':
					v = fp.V1
				default:
					t.Fatalf("width %d background %d renders non-binary %q", width, i, s)
				}
				if bg[j] != v {
					t.Fatalf("width %d background %d: bit %d round-trips %v -> %q", width, i, j, bg[j], c)
				}
			}
		}
		// Separation: every pair of distinct bits differs under some
		// background — the defining property of the standard set.
		for a := 0; a < width; a++ {
			for b := a + 1; b < width; b++ {
				split := false
				for _, bg := range bgs {
					if bg[a] != bg[b] {
						split = true
						break
					}
				}
				if !split {
					t.Fatalf("width %d: bits %d and %d agree under every background", width, a, b)
				}
			}
		}
		// Coverage monotonicity, where the fault space is small enough to
		// simulate per fuzz iteration.
		if width < 2 || width > 4 {
			return
		}
		faults := TestableIntraWordFaults(width)
		prev := -1
		for k := 1; k <= len(bgs); k++ {
			det, err := Coverage(march.MATSPlus, faults, bgs[:k])
			if err != nil {
				t.Fatalf("width %d coverage with %d backgrounds: %v", width, k, err)
			}
			if det < prev {
				t.Fatalf("width %d: coverage dropped from %d to %d when adding background %d",
					width, prev, det, k)
			}
			prev = det
		}
	})
}
