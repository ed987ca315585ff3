// Two-port memories: the paper's Section 7 names march test generation for
// multi-port memories as ongoing work. This example exercises the
// repository's two-port prototype: weak fault models that only manifest
// under simultaneous accesses, the demonstration that even March SL (which
// covers every static linked fault) sees none of them through a single
// port, and the generation of a certified two-port march test.
package main

import (
	"fmt"
	"log"

	"marchgen/internal/march"
	"marchgen/internal/mport"
)

func main() {
	faults := mport.Catalog()
	fmt.Printf("two-port fault catalog: %d faults, e.g.\n", len(faults))
	for _, i := range []int{0, 1, 6, 7} {
		fmt.Printf("  %s\n", faults[i].ID())
	}

	// Single-port tests — even the strongest — detect none of them.
	fmt.Println("\nsingle-port march tests against the two-port faults:")
	for _, sp := range []march.Test{march.MarchCMinus, march.MarchSS, march.MarchSL} {
		lifted, err := mport.Lift(sp)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := mport.Simulate(lifted, faults)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s (%4s): %d/%d detected\n", sp.Name, sp.Complexity(), rep.Detected, rep.Total)
	}

	// Generate a two-port test with simultaneous-access elements.
	test, rep, err := mport.Generate(faults, mport.Options{Name: "March 2P"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngenerated %s (%s): %d/%d certified\n", test.Name, test.Complexity(), rep.Detected, rep.Total)
	fmt.Printf("  %s\n", test)
}
