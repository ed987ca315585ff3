package main

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// opSequence renders the inputs of a workload's first ops under a seed.
type opSequence func(seed int64, phase, client, n int) []string

func optimizeSequence(seed int64, phase, client, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprint(opSeeds(seed, opID{phase, client, i})))
	}
	return out
}

func diagnoseSequence(t *testing.T) opSequence {
	w, err := setupDiagnose(&bench{})
	if err != nil {
		t.Fatal(err)
	}
	d := w.(*diagnoseW)
	if d.instances != 480 {
		t.Fatalf("simple list has %d instances, want 480", d.instances)
	}
	return func(seed int64, phase, client, n int) []string {
		var out []string
		for i := 0; i < n; i++ {
			target, first := d.pick(seed, opID{phase, client, i})
			out = append(out, target.Key()+" "+first.Name)
		}
		return out
	}
}

func serveSequence(seed int64, phase, client, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprint(pick(seed, opID{phase, client, i})))
	}
	return out
}

func TestSeedDeterminesOpSequence(t *testing.T) {
	for name, seq := range map[string]opSequence{
		"optimize": optimizeSequence,
		"diagnose": diagnoseSequence(t),
		"serve":    serveSequence,
	} {
		a := seq(1, phaseMain, 0, 60)
		if b := seq(1, phaseMain, 0, 60); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two op sequences", name)
		}
		if b := seq(2, phaseMain, 0, 60); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", name)
		}
		// The traced phase repeats the untraced phase's work.
		if b := seq(1, phaseTraced, 0, 60); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the traced phase runs other ops than the untraced one", name)
		}
		if name == "serve" {
			if b := seq(1, phaseMain, 1, 60); reflect.DeepEqual(a, b) {
				t.Errorf("serve: both clients send the same sequence")
			}
		}
	}
}

func TestWarmUpIgnoresSeed(t *testing.T) {
	warm := opID{phaseWarm, -1, 0}
	a, b := (&bench{seed: 1}).opSeed(warm), (&bench{seed: 2}).opSeed(warm)
	if a != b {
		t.Errorf("warm-up op seeds differ across workload seeds: %d, %d", a, b)
	}
	if (&bench{seed: 5}).opSeed(opID{phaseMain, 0, 0}) != 5 {
		t.Error("timed ops should draw from the workload seed")
	}
}

func TestDiagnoseSpreadsTargetsOverEveryFault(t *testing.T) {
	w, err := setupDiagnose(&bench{})
	if err != nil {
		t.Fatal(err)
	}
	d := w.(*diagnoseW)
	seen := map[string]bool{}
	for i := 0; i < len(d.faults); i++ {
		target, _ := d.pick(3, opID{phaseMain, 0, i})
		seen[target.Fault.ID()] = true
	}
	if len(seen) != len(d.faults) {
		t.Errorf("the first %d ops hit %d distinct faults, want every one", len(d.faults), len(seen))
	}
}

func TestDiagnoseBlocksDoTheSameWorkUnderEverySeed(t *testing.T) {
	w, err := setupDiagnose(&bench{})
	if err != nil {
		t.Fatal(err)
	}
	d := w.(*diagnoseW)
	block := func(seed int64, b int) []string {
		var out []string
		for i := b * len(d.faults); i < (b+1)*len(d.faults); i++ {
			target, first := d.pick(seed, opID{phaseMain, 0, i})
			out = append(out, target.Key()+" "+first.Name)
		}
		return out
	}
	for b := 0; b < 3; b++ {
		x, y := block(1, b), block(2, b)
		if slices.Equal(x, y) {
			t.Errorf("block %d: seeds 1 and 2 ordered it the same way", b)
		}
		slices.Sort(x)
		slices.Sort(y)
		if !slices.Equal(x, y) {
			t.Errorf("block %d: seeds 1 and 2 drew different sessions", b)
		}
	}
	if slices.Equal(block(1, 0), block(1, 1)) {
		t.Error("blocks 0 and 1 pair faults with the same first marches")
	}
}
