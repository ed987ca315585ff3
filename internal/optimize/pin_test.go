package optimize

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/march"
)

// TestOptimizeRunsPinned pins what the search finds on perfbench's two
// optimize tasks, March SL on List #1 at a budget of 1000 and March ABL1 on
// List #2 at the default budget, at four rng seeds: the winner's ASCII form,
// its move-trace hash, and the Evaluations, Accepted and Restarts counts,
// hashed with SHA-256. The digests were taken before each candidate carried
// a checkpoint of its own, so any speedup of the coverage judge must leave
// every search path byte-identical. The List #1 runs skip under -short.
func TestOptimizeRunsPinned(t *testing.T) {
	rows := []struct {
		list   string
		seed   march.Test
		budget int
		rng    int64
		want   string
	}{
		{"list1", march.MarchSL, 1000, 1, "6b3ff9d645de622443b69026e22667541fb89a8af8212de689a0c3c85ab1b372"},
		{"list1", march.MarchSL, 1000, 2, "6ede9938e4fcf03325b969676e228c29837aba19d0f88ad14aab5841ec6e076d"},
		{"list1", march.MarchSL, 1000, 7, "564277cfc0f8101e8d22ed273134fa27bf7c43db98447a014fe08294b2d3ae9b"},
		{"list1", march.MarchSL, 1000, 1234567, "f49eb29e7dee1be413fae6f7b3c33a2fd32e6eb2bba962f074109696eef64bfb"},
		{"list2", march.MarchABL1, 0, 1, "386fc92cf3f5f608fbffb52328a40832c70f0911c6414acfcc9d0c9d555d029f"},
		{"list2", march.MarchABL1, 0, 2, "55bf648e5fd028d06d7a43dd0ed10239f6f510518903cd832a2334cdd926fe16"},
		{"list2", march.MarchABL1, 0, 7, "dd15b370e966b27c55d89af53f0b5d2f037a1728c9344ea78aa226f60a1cda93"},
		{"list2", march.MarchABL1, 0, 1234567, "52637bf40ee7556ff0fcb7cc2fbba07404d1b3aec3d59fee08e8196f927bde92"},
	}
	for _, row := range rows {
		t.Run(fmt.Sprintf("%s/%d", row.list, row.rng), func(t *testing.T) {
			if row.list == "list1" && testing.Short() {
				t.Skip("List #1 search")
			}
			faults, ok := faultlist.ByName(row.list)
			if !ok {
				t.Fatalf("unknown list %q", row.list)
			}
			seed := row.seed
			res, err := Run(faults, Options{Seed: row.rng, Budget: row.budget, SeedTest: &seed})
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			line := fmt.Sprintf("test=%s|trace=%s|evaluations=%d|accepted=%d|restarts=%d",
				res.Test.ASCII(), res.Test.Prov.MoveTrace, s.Evaluations, s.Accepted, s.Restarts)
			sum := sha256.Sum256([]byte(line))
			if got := hex.EncodeToString(sum[:]); got != row.want {
				t.Errorf("digest %s, want %s\n%s", got, row.want, line)
			}
		})
	}
}
