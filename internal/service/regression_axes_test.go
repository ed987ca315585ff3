package service

import (
	"testing"

	"marchgen"
)

// The literal digests below were captured on the pre-axis build (before
// width/ports/transparent joined core.Options and sim.Config). They pin the
// PR's central compatibility promise: a bit-oriented single-port request is
// byte-identical everywhere — same canonical options, same cache keys — so
// every pre-existing cache entry, job id and campaign store stays valid.
const (
	prePRGenerateKeyList2  = "0f1eabe93608bcaa0a54deb0a8cd35150b3ff49df268858f163ea0b7fe7df4bc"
	prePRVerifyKeyMATSplus = "3db649b816d58a5a432a228660b424bb7f1393ae07dd746b5d8e2dc644016288"
)

// TestBitOrientedCacheKeysMatchPreAxisBuild pins the generate and verify
// cache keys of default (width=1/ports=1) requests to their pre-PR values:
// the axis fields must vanish from the canonical encoding at their defaults,
// whether omitted or spelled out.
func TestBitOrientedCacheKeysMatchPreAxisBuild(t *testing.T) {
	faults, err := marchgen.FaultListByName("list2")
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []marchgen.Options{
		{},
		{Width: 1, Ports: 1},
		{Width: 0, Ports: 0, Transparent: false},
	} {
		gk, err := generateKey(faults, opts.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		if gk != prePRGenerateKeyList2 {
			t.Fatalf("generateKey(list2, %+v) = %s, want pre-PR %s", opts, gk, prePRGenerateKeyList2)
		}
	}

	test, ok := marchgen.MarchByName("MATS+")
	if !ok {
		t.Fatal("no MATS+ in the library")
	}
	sfaults, err := marchgen.FaultListByName("simple2")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []marchgen.SimConfig{
		marchgen.DefaultSimConfig(),
		func() marchgen.SimConfig { c := marchgen.DefaultSimConfig(); c.Width = 1; c.Ports = 1; return c }(),
	} {
		vk, err := verifyKey(test, sfaults, cfg.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		if vk != prePRVerifyKeyMATSplus {
			t.Fatalf("verifyKey(MATS+, simple2, %+v) = %s, want pre-PR %s", cfg, vk, prePRVerifyKeyMATSplus)
		}
	}
}

// TestAxisRequestsGetDistinctCacheKeys is the converse: a non-default axis
// must change the key (a width-4 result must never be served to a width-1
// request).
func TestAxisRequestsGetDistinctCacheKeys(t *testing.T) {
	faults, err := marchgen.FaultListByName("list2")
	if err != nil {
		t.Fatal(err)
	}
	base, err := generateKey(faults, marchgen.Options{}.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{"default": base}
	for name, opts := range map[string]marchgen.Options{
		"width4":       {Width: 4},
		"width4transp": {Width: 4, Transparent: true},
		"ports2":       {Ports: 2},
		"width4ports2": {Width: 4, Ports: 2},
	} {
		k, err := generateKey(faults, opts.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		for prev, pk := range seen {
			if pk == k {
				t.Fatalf("generateKey collision: %s == %s (%s)", name, prev, k)
			}
		}
		seen[name] = k
	}
}
