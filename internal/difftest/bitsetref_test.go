package difftest

import (
	"testing"
)

// TestBitsetRefReplay50 is the property test of the bitset combination
// sets: 50 generated superblocks, each replaying a random decision
// script through the full Check pipeline (which always runs it) and
// recomputing every pair's surviving set from first principles after
// construction, every probe rollback and every committed step.
func TestBitsetRefReplay50(t *testing.T) {
	gen := NewGen(13, 16)
	for i := 0; i < 50; i++ {
		sb := gen.Next()
		rep := Check(sb, Options{
			PinSeed:     int64(i),
			Parallelism: -1,
			OracleLimit: -1,
		})
		for _, v := range rep.Violations {
			if v.Kind == KindBitsetRef {
				t.Fatalf("block %d (%s): %s", i, sb.Name, v.Detail)
			}
		}
	}
}

// TestBitsetRefReplay200 drives the dedicated entry point over a larger
// corpus (no scheduler runs, so it stays cheap): 200 generated blocks.
func TestBitsetRefReplay200(t *testing.T) {
	if testing.Short() {
		t.Skip("long corpus; covered in miniature by TestBitsetRefReplay50")
	}
	gen := NewGen(17, 24)
	for i := 0; i < 200; i++ {
		sb := gen.Next()
		rep := CheckBitsetRef(sb, Options{PinSeed: int64(i % 5)})
		for _, v := range rep.Violations {
			t.Fatalf("block %d (%s): %s", i, sb.Name, v.Detail)
		}
	}
}
