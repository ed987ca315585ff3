package service

import (
	"context"

	"marchgen"
	"marchgen/internal/mport"
	"marchgen/internal/oracle"
	"marchgen/internal/word"
)

// This file wires the word-width and port-count axes into the simulate and
// verify endpoints. Both sections are nil at the bit-oriented/single-port
// defaults, so pre-axis requests keep byte-identical responses.

// crossCheckWordAxis runs the word-axis differential check of a verify job:
// internal/word versus the mask-based reference in internal/oracle, over the
// march-testable intra-word faults of the given width.
func crossCheckWordAxis(ctx context.Context, t marchgen.March, width int) (*verifyAxisJSON, error) {
	if width <= 1 {
		return nil, nil
	}
	bgs, err := word.Backgrounds(width)
	if err != nil {
		return nil, err
	}
	faults := word.TestableIntraWordFaults(width)
	diffs, err := oracle.CrossCheckWord(t, faults, bgs)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := &verifyAxisJSON{Width: width, Faults: len(faults), Agree: len(diffs) == 0, Divergences: []string{}}
	for _, d := range diffs {
		out.Divergences = append(out.Divergences, d.String())
	}
	return out, nil
}

// crossCheckMportAxis runs the two-port differential check of a verify job:
// internal/mport versus the event-based reference in internal/oracle, over
// the weak-fault catalog, on the lifted (port B idle) form of the test.
func crossCheckMportAxis(ctx context.Context, t marchgen.March, ports int) (*verifyAxisJSON, error) {
	if ports <= 1 {
		return nil, nil
	}
	lifted, err := mport.Lift(t)
	if err != nil {
		return nil, err
	}
	catalog := mport.Catalog()
	diffs, err := oracle.CrossCheckMport(lifted, catalog)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := &verifyAxisJSON{Ports: ports, Faults: len(catalog), Agree: len(diffs) == 0, Divergences: []string{}}
	for _, d := range diffs {
		out.Divergences = append(out.Divergences, d.String())
	}
	return out, nil
}
