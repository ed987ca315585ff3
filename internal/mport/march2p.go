package mport

// march2PSpec is March 2P in the ASCII notation Parse reads: the 183n,
// 90-element test that Generate(Catalog(), Options{}) returns. It covers the
// whole catalog. TestGenerate2P regenerates it byte for byte.
const march2PSpec = "c(w0:-) ^(r0:r0,r0:-) ^(w1:-) ^(r1:r1,r1:-) ^(w0:-) v(r:-,w1:w1+1,w0:-) " +
	"^(w0:-) ^(r:-,w1:w1-1,w0:-) v(r:-,w0:-,w1:w1+1,w0:-) ^(r:-) ^(w0:-) " +
	"v(r:-,w1:w0+1) ^(r:-,w1:-,w0:w1-1) v(r:-) ^(w1:-) ^(r:-,w0:w1-1) ^(w0:-) " +
	"v(r:-,w1:r+1,w0:-) ^(r:w1-1) v(r:-) ^(w1:-) ^(r:-,w0:-,r:w1-1) ^(w0:-) " +
	"v(r:-,w1:r+1) ^(w0:-) ^(r:-,w1:-,r:w1-1,w0:-) v(r:-,w0:-,w1:r+1) ^(r:-) " +
	"^(w0:-) ^(r:-,w1:w0-1) ^(w1:-) v(r:-,w0:w1+1) ^(r:-,w0:-,w1:w0-1) " +
	"v(r:-,w1:-,w0:w0+1,w1:-) ^(r:-) ^(w1:-) v(r:-,w0:w0+1,w1:-) ^(w1:-) " +
	"^(r:-,w0:w0-1,w1:-) ^(w0:-) ^(r:w0-1,w1:-) ^(w1:-) v(r:-,w0:r+1) ^(w1:-) " +
	"^(r:-,w0:-,r:w0-1,w1:-) v(r:-,w1:-,w0:r+1,w1:-) ^(w0:-) ^(r:-,w1:-,r:w0-1) " +
	"^(w1:-) v(r:-,w0:r+1,w1:-) ^(r:-) ^(w0:-) ^(r:-,w1:r-1,w0:-) ^(w1:-) " +
	"v(r:-,w0:-,r:w1+1) ^(r:-,w0:-,w1:r-1,w0:-) ^(r:-,w1:-,w0:r-1) ^(w1:-) " +
	"v(r:-,w0:-,r:w0+1,w1:-) ^(w1:-) ^(r:-,w0:r-1) v(r:r+1) ^(r:-) ^(w1:-) " +
	"v(r:-,w0:-,r:r+1) ^(w1:-) ^(r:-,w0:-,r:r-1) ^(r:-,w1:-,r:r-1,w0:-) ^(w1:-) " +
	"v(r:-,w0:-,r:r+1,w1:-) ^(r:r-1,w0:-) v(r:-,w1:-,r:w1+1,w0:-) ^(w0:-) " +
	"^(r:-,w1:r-1) v(r:w1+1,w0:-) ^(r:-) ^(w0:-) v(r:-,w1:-,r:w0+1) " +
	"^(r:-,w1:-,w0:r-1,w1:-) ^(r:-,w0:r-1,w1:-) ^(w0:-) v(r:-,w1:-,r:r+1,w0:-) " +
	"^(r:r-1,w1:-) ^(r:-,w0:-,r:r-1,w1:-) ^(w0:-) v(r:-,w1:-,r:r+1) ^(w0:-) " +
	"^(r:-,w1:-,r:r-1) v(r:r+1) ^(r:-)"

// March2P returns March 2P, the catalog's dedicated two-port march. The
// catalog is fixed and Generate is deterministic, so the test is data and
// no caller waits for the search. It parses the spec on every call, so no
// binary that links mport keeps the parsed test in its heap.
func March2P() Test { return MustParse("March 2P", march2PSpec) }
