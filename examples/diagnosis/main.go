// Fault diagnosis: march tests are not only pass/fail — the pattern of
// failing reads (the syndrome) identifies the fault. This example builds a
// fault dictionary for March SS over the simple static faults, plays
// "device under test" with a hidden fault, and shows the dictionary
// narrowing it down to the right model at the right cell. Dictionary and
// device run the same compiled schedule, from the all-zero state with ⇕
// elements run upward.
package main

import (
	"fmt"
	"log"

	"marchgen/internal/diagnose"
	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

func main() {
	test := march.MarchSS
	faults := faultlist.SimpleSingleCell()

	dict, err := diagnose.Build(test, faults, sim.Config{Size: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dictionary for %s over %d fault models on 4 cells:\n  %s\n\n",
		test.Name, len(faults), dict.Resolution())

	// The hidden defect: a write destructive fault at cell 2.
	hidden, err := linked.NewSimple(fp.MustParseFP("<1w1/0/->"))
	if err != nil {
		log.Fatal(err)
	}
	candidates, syndrome, err := dict.Diagnose(diagnose.Candidate{Fault: hidden, Placement: []int{2}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device under test fails %d reads; syndrome key:\n  %s\n\n", len(syndrome), syndrome.Key())
	fmt.Printf("dictionary candidates (%d):\n", len(candidates))
	for _, c := range candidates {
		fmt.Printf("  %s at cell %d\n", c.Fault.ID(), c.Placement[0])
	}
	fmt.Printf("\nhidden fault was: %s at cell 2\n", hidden.ID())
}
