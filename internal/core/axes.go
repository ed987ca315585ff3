package core

import (
	"context"
	"fmt"

	"marchgen/internal/march"
	"marchgen/internal/mport"
	"marchgen/internal/sim"
	"marchgen/internal/word"
)

// WordResult is the word-oriented evaluation of a generated test: how many
// of the intra-word two-cell faults of a w-bit word the test detects when
// applied with the standard background set (solid + log2(w) alternating).
// When the run asked for the transparent in-field mode it also carries the
// transparent variant (initialization dropped, content as background) and
// its coverage.
type WordResult struct {
	// Width is the word width in bits (always > 1 here).
	Width int `json:"width"`
	// Backgrounds is the size of the standard background set, 1 + log2(w).
	Backgrounds int `json:"backgrounds"`
	// Faults is the number of march-testable intra-word faults.
	Faults int `json:"faults"`
	// Detected is how many of them the generated test detects.
	Detected int `json:"detected"`
	// Transparent marks that the in-field transparent mode was evaluated.
	Transparent bool `json:"transparent,omitempty"`
	// TransparentTest is the transparent variant in march notation.
	TransparentTest string `json:"transparent_test,omitempty"`
	// TransparentDetected is the transparent variant's intra-word coverage.
	TransparentDetected int `json:"transparent_detected,omitempty"`
}

// MportResult is the multi-port evaluation of a generation run: the coverage
// the single-port test retains against the two-port weak-fault catalog when
// lifted (port B idle), plus the catalog's dedicated two-port march,
// mport.March2P.
type MportResult struct {
	// Ports is the port count (always 2 here — the modeled topology).
	Ports int `json:"ports"`
	// Faults is the size of the two-port weak-fault catalog.
	Faults int `json:"faults"`
	// LiftedDetected is the catalog coverage of the lifted single-port test.
	LiftedDetected int `json:"lifted_detected"`
	// Test is the dedicated two-port march in pair notation.
	Test string `json:"test"`
	// TestLength is its length in operation pairs.
	TestLength int `json:"test_length"`
	// TestDetected is its catalog coverage: the whole catalog, which
	// mport's tests certify.
	TestDetected int `json:"test_detected"`
}

// axisDefaults normalizes the axis options: width and ports at or below
// their bit-oriented/single-port defaults become 0 so a spelled-out default
// and an omitted one share a canonical form, and Transparent without a word
// width is meaningless and dropped.
func (o Options) axisDefaults() Options {
	if o.Width <= 1 {
		o.Width = 0
	}
	if o.Ports <= 1 {
		o.Ports = 0
	}
	if o.Width == 0 {
		o.Transparent = false
	}
	return o
}

// validateAxes bounds the axis options to the modeled space.
func (o Options) validateAxes() error {
	if o.Width < 0 || o.Width > 64 {
		return fmt.Errorf("core: width %d out of range [0,64]", o.Width)
	}
	if o.Ports < 0 || o.Ports > 2 {
		return fmt.Errorf("core: ports %d out of range [0,2] (only two-port memories are modeled)", o.Ports)
	}
	return nil
}

// EvaluateWord runs the word-oriented evaluation of a march test at the
// given width: the march-testable intra-word faults, the standard background
// set, and — when transparent is set — the in-field transparent variant. It
// is the single implementation behind Generate's word section, the verify
// and simulate endpoints, and the campaign word axis. A test that refuses
// the transparent transform gets the section graded without it, together
// with an error that wraps the refusal.
func EvaluateWord(ctx context.Context, t march.Test, width int, transparent bool) (*WordResult, error) {
	if width <= 1 {
		return nil, nil
	}
	bgs, err := word.Backgrounds(width)
	if err != nil {
		return nil, err
	}
	faults := word.TestableIntraWordFaults(width)
	cfg := word.Config{Words: 2, Width: width}
	detected := 0
	for _, f := range faults {
		if err := sim.ContextErr(ctx); err != nil {
			return nil, err
		}
		d, err := word.Detects(t, f, bgs, cfg)
		if err != nil {
			return nil, err
		}
		if d {
			detected++
		}
	}
	res := &WordResult{
		Width:       width,
		Backgrounds: len(bgs),
		Faults:      len(faults),
		Detected:    detected,
	}
	if transparent {
		tt, err := word.Transparent(t)
		if err != nil {
			return res, fmt.Errorf("core: transparent mode: %w", err)
		}
		td := 0
		for _, f := range faults {
			if err := sim.ContextErr(ctx); err != nil {
				return nil, err
			}
			d, err := word.DetectsTransparent(tt, f, bgs, cfg)
			if err != nil {
				return nil, err
			}
			if d {
				td++
			}
		}
		res.Transparent = true
		res.TransparentTest = tt.String()
		res.TransparentDetected = td
	}
	return res, nil
}

// EvaluateMport runs the two-port evaluation of a march test: the weak-fault
// catalog coverage of its single-port lift, plus the dedicated two-port
// march mport.March2P. Shared by Generate's mport section, the service
// endpoints and the campaign ports axis.
func EvaluateMport(ctx context.Context, t march.Test, ports int) (*MportResult, error) {
	if ports <= 1 {
		return nil, nil
	}
	if err := sim.ContextErr(ctx); err != nil {
		return nil, err
	}
	catalog := mport.Catalog()
	lifted, err := mport.Lift(t)
	if err != nil {
		return nil, fmt.Errorf("core: mport lift: %v", err)
	}
	liftedRep, err := mport.Simulate(lifted, catalog, mport.Config{})
	if err != nil {
		return nil, fmt.Errorf("core: mport simulate lifted: %v", err)
	}
	gen := mport.March2P()
	return &MportResult{
		Ports:          ports,
		Faults:         len(catalog),
		LiftedDetected: liftedRep.Detected,
		Test:           gen.String(),
		TestLength:     gen.Length(),
		TestDetected:   len(catalog),
	}, nil
}

// evaluateAxes fills the word and mport sections of a generation result
// according to the axis options. Axis evaluation happens after certification
// — it grades the certified test on the extra dimensions, it never changes
// the test.
func evaluateAxes(ctx context.Context, t march.Test, opts Options, res *Result) error {
	o := opts.axisDefaults()
	w, err := EvaluateWord(ctx, t, o.Width, o.Transparent)
	if err != nil {
		return err
	}
	res.Word = w
	m, err := EvaluateMport(ctx, t, o.Ports)
	if err != nil {
		return err
	}
	res.Mport = m
	return nil
}
