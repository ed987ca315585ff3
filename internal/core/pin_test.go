package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/sim"
)

// TestGenerateOutputsPinned pins what the generator produces, row by row:
// the generated test, every Stats field but Duration, and the error text,
// hashed with SHA-256. The digests were taken before the repair phase
// learned to resume trials from a checkpoint of the candidate, so any
// speedup of the pipeline must leave every row byte-identical. The
// multi-second rows skip under -short, as TestGenerateList1 does.
func TestGenerateOutputsPinned(t *testing.T) {
	exhaustive := sim.Config{Size: 4, ExhaustiveOrders: true}
	rows := []struct {
		name string
		list string
		opts Options
		slow bool
		want string
	}{
		{"list1", "list1", Options{}, true, "25c3a93899ae985852a8a96f36132c2a52e23a792970a5d47545fec148af7aca"},
		{"list1-aggressive", "list1", Options{Aggressive: true}, true, "ff70ca4a0b64b630043c3b871f15d6f69947976f892ea21c43b21b95f124243a"},
		{"list2", "list2", Options{}, false, "bb0415514ce25df4880b8fc358f0c47a266cb25360a92a088615328bdec6dcc2"},
		{"simple", "simple", Options{}, false, "0bf9463056088ea194120dbd01aac6a7ec0ad493a2e3430ec9a4b2df645c019c"},
		{"dynamic", "dynamic", Options{}, true, "ba4fec17d1ed91a27653a18c09bc5dc0d01e3a8ce71e5d66704b55aff146ee80"},
		{"list1-up", "list1", Options{Orders: OrderUpOnly}, true, "d3e77aff38eb2d031757fe4e9f0d633313d79bda82a81ae8713bf70e030060f9"},
		{"list1-down", "list1", Options{Orders: OrderDownOnly}, true, "d3e77aff38eb2d031757fe4e9f0d633313d79bda82a81ae8713bf70e030060f9"},
		{"list2-up", "list2", Options{Orders: OrderUpOnly}, false, "bb0415514ce25df4880b8fc358f0c47a266cb25360a92a088615328bdec6dcc2"},
		{"list2-down", "list2", Options{Orders: OrderDownOnly}, false, "5d749835ed18f0b23028682e286be675254483b87b2956c20adb6174d9824c7f"},
		{"list1-exhaustive-search", "list1", Options{SearchConfig: exhaustive}, true, "25c3a93899ae985852a8a96f36132c2a52e23a792970a5d47545fec148af7aca"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.slow && testing.Short() {
				t.Skip("multi-second generation run")
			}
			faults, ok := faultlist.ByName(row.list)
			if !ok {
				t.Fatalf("unknown list %q", row.list)
			}
			res, err := Generate(faults, row.opts)
			errText := ""
			if err != nil {
				errText = err.Error()
			}
			s := res.Stats
			line := fmt.Sprintf("test=%s|faults=%d|walkerElements=%d|walkerOps=%d|repairElements=%d|lengthBeforeMinimize=%d|simulations=%d|err=%s",
				res.Test, s.Faults, s.WalkerElements, s.WalkerOps, s.RepairElements, s.LengthBeforeMinimize, s.Simulations, errText)
			sum := sha256.Sum256([]byte(line))
			if got := hex.EncodeToString(sum[:]); got != row.want {
				t.Errorf("digest %s, want %s\n%s", got, row.want, line)
			}
		})
	}
}
