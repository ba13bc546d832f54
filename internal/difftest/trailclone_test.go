package difftest

import (
	"testing"
)

// TestTrailCloneReplay50 is the property test of the speculation trail:
// 50 generated superblocks, each replaying a random decision script
// against the trail universe and the Clone universe through the full
// Check pipeline (which always runs it). Any divergence in
// fingerprints or error strings is a violation.
func TestTrailCloneReplay50(t *testing.T) {
	gen := NewGen(7, 16)
	for i := 0; i < 50; i++ {
		sb := gen.Next()
		rep := Check(sb, Options{
			PinSeed:     int64(i),
			Parallelism: -1,
			OracleLimit: -1,
		})
		for _, v := range rep.Violations {
			if v.Kind == KindTrailClone {
				t.Fatalf("block %d (%s): %s", i, sb.Name, v.Detail)
			}
		}
	}
}

// TestTrailCloneReplay200 drives the dedicated entry point over a
// larger corpus (no scheduler runs, so it stays cheap): 200 generated
// blocks, two machines each.
func TestTrailCloneReplay200(t *testing.T) {
	if testing.Short() {
		t.Skip("long corpus; covered in miniature by TestTrailCloneReplay50")
	}
	gen := NewGen(11, 24)
	for i := 0; i < 200; i++ {
		sb := gen.Next()
		rep := CheckTrailClone(sb, Options{PinSeed: int64(i % 5)})
		for _, v := range rep.Violations {
			t.Fatalf("block %d (%s): %s", i, sb.Name, v.Detail)
		}
	}
}
