package linked

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"marchgen/internal/fp"
)

// checkLinkDigest is the SHA-256 of CheckLink's verdict on every ordered
// pair of the 48 static and 66 dynamic primitives under each of the six
// kinds, one line per pair ("ok" or the error text), captured before Links
// split the predicate from its messages. It pins the message text byte for
// byte.
const checkLinkDigest = "ca2f3048b6660d2c5d9d6a2c0e8ac3b46b36e1549f1607a489c6113c640b113d"

// TestLinksMatchesCheckLink is the wall between the allocation-free
// predicate and the error-building one: they agree on every pair, and the
// messages are unchanged.
func TestLinksMatchesCheckLink(t *testing.T) {
	prims := append(fp.AllStatic(), fp.AllDynamic()...)
	if len(prims) != 114 {
		t.Fatalf("catalog holds %d primitives, want 114", len(prims))
	}
	h := sha256.New()
	for _, k := range []Kind{Simple, LF1, LF2aa, LF2av, LF2va, LF3} {
		for _, f1 := range prims {
			for _, f2 := range prims {
				err := CheckLink(f1, f2, k)
				if got := Links(f1, f2, k); got != (err == nil) {
					t.Fatalf("Links(%v, %v, %v) = %v, CheckLink = %v", f1, f2, k, got, err)
				}
				if err != nil {
					fmt.Fprintln(h, err)
				} else {
					fmt.Fprintln(h, "ok")
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != checkLinkDigest {
		t.Fatalf("CheckLink verdicts digest %s, want %s", got, checkLinkDigest)
	}
}

func TestLinksDoesNotAllocate(t *testing.T) {
	tf := fp.MustParseFP("<0w1/0/->")
	irf := fp.MustParseFP("<0r0/0/1>")
	rdf := fp.MustParseFP("<0r0/1/1>")
	allocs := testing.AllocsPerRun(100, func() {
		Links(irf, rdf, LF1) // rejected: IRF keeps the stored value
		Links(tf, rdf, LF1)  // accepted
	})
	if allocs != 0 {
		t.Fatalf("Links allocates %.1f times per call pair, want 0", allocs)
	}
}
