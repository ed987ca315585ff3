package service

import (
	"testing"

	"marchgen"
)

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes the eviction victim
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	if v, ok := c.Get("c"); !ok || string(v) != "C" {
		t.Fatalf("c = %q, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestResultCachePutRefreshes(t *testing.T) {
	c := newResultCache(4)
	c.Put("k", []byte("v1"))
	c.Put("k", []byte("v2"))
	if v, _ := c.Get("k"); string(v) != "v2" {
		t.Fatalf("got %q, want v2", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

func TestGenerateKeyCanonicalEquivalence(t *testing.T) {
	faults := marchgen.List2()

	// Omitted defaults and spelled-out defaults are the same request.
	k1, err := generateKey(faults, marchgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := generateKey(faults, marchgen.Options{Name: "March GEN", MaxSOLen: 11, MaxRepairRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("canonically equal options hash differently:\n%s\n%s", k1, k2)
	}

	// A semantically different request must hash differently.
	k3, err := generateKey(faults, marchgen.Options{Aggressive: true})
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatalf("aggressive option did not change the cache key")
	}

	// And so must a different fault list.
	k4, err := generateKey(marchgen.List1(), marchgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if k4 == k1 {
		t.Fatalf("fault list did not change the cache key")
	}
}
