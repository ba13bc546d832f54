package ir

import (
	"math"
	"strings"
	"testing"
)

func TestClassRoundTrip(t *testing.T) {
	for c := Class(0); int(c) < NumClasses; c++ {
		got, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("round trip of %v = %v", c, got)
		}
	}
	if _, err := ParseClass("bogus"); err == nil {
		t.Error("ParseClass(bogus) succeeded")
	}
	if Class(200).Valid() {
		t.Error("Class(200).Valid() = true")
	}
	if !strings.Contains(Class(200).String(), "200") {
		t.Errorf("Class(200).String() = %q", Class(200))
	}
}

func TestBuilderBasic(t *testing.T) {
	sb := PaperFigure1()
	if sb.N() != 7 {
		t.Fatalf("N = %d, want 7", sb.N())
	}
	if got := sb.Exits(); len(got) != 2 || got[0] != 4 || got[1] != 6 {
		t.Fatalf("Exits = %v, want [4 6]", got)
	}
	if !sb.Instrs[4].IsExit() || sb.Instrs[0].IsExit() {
		t.Error("IsExit misclassified")
	}
	if !sb.ExitOrderOK() {
		t.Error("exits of figure 1 not ordered")
	}
}

func TestBuilderValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Superblock, error)
	}{
		{"no exit", func() (*Superblock, error) {
			b := NewBuilder("x")
			b.Instr("a", Int, 1)
			return b.Finish()
		}},
		{"prob sum != 1", func() (*Superblock, error) {
			b := NewBuilder("x")
			b.Exit("b", 1, 0.5)
			return b.Finish()
		}},
		{"last not exit", func() (*Superblock, error) {
			b := NewBuilder("x")
			b.Exit("b", 1, 1.0)
			b.Instr("a", Int, 1)
			return b.Finish()
		}},
		{"zero latency", func() (*Superblock, error) {
			b := NewBuilder("x")
			b.Instr("a", Int, 0)
			b.Exit("b", 1, 1.0)
			return b.Finish()
		}},
		{"cycle", func() (*Superblock, error) {
			b := NewBuilder("x")
			a := b.Instr("a", Int, 1)
			c := b.Instr("c", Int, 1)
			b.Exit("b", 1, 1.0)
			b.Data(a, c).Data(c, a)
			return b.Finish()
		}},
		{"self edge", func() (*Superblock, error) {
			b := NewBuilder("x")
			a := b.Instr("a", Int, 1)
			b.Exit("b", 1, 1.0)
			b.Data(a, a)
			return b.Finish()
		}},
		{"edge out of range", func() (*Superblock, error) {
			b := NewBuilder("x")
			a := b.Instr("a", Int, 1)
			b.Exit("b", 1, 1.0)
			b.Dep(Data, a, 99, 1)
			return b.Finish()
		}},
		{"duplicate edge", func() (*Superblock, error) {
			b := NewBuilder("x")
			a := b.Instr("a", Int, 1)
			x := b.Exit("b", 1, 1.0)
			b.Data(a, x).Data(a, x)
			return b.Finish()
		}},
		{"duplicate edge behind an edge of the other kind", func() (*Superblock, error) {
			b := NewBuilder("x")
			a := b.Instr("a", Int, 1)
			x := b.Exit("b", 1, 1.0)
			b.Data(a, x).Ctrl(a, x).Dep(Data, a, x, 3)
			return b.Finish()
		}},
		{"NaN exit probability", func() (*Superblock, error) {
			b := NewBuilder("x")
			b.Exit("a", 1, math.NaN())
			b.Exit("b", 1, 1.0)
			return b.Finish()
		}},
		{"copy class input", func() (*Superblock, error) {
			b := NewBuilder("x")
			b.Instr("a", Copy, 1)
			b.Exit("b", 1, 1.0)
			return b.Finish()
		}},
		{"bad exec count", func() (*Superblock, error) {
			b := NewBuilder("x")
			b.SetExecCount(0)
			b.Exit("b", 1, 1.0)
			return b.Finish()
		}},
		{"livein no consumer", func() (*Superblock, error) {
			b := NewBuilder("x")
			b.Exit("b", 1, 1.0)
			b.LiveIn("v")
			return b.Finish()
		}},
		{"liveout out of range", func() (*Superblock, error) {
			b := NewBuilder("x")
			b.Exit("b", 1, 1.0)
			b.LiveOut(7)
			return b.Finish()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.build(); err == nil {
				t.Errorf("%s: Finish succeeded, want error", tc.name)
			}
		})
	}
}

func TestEStartsFigure1(t *testing.T) {
	sb := PaperFigure1()
	est := sb.EStarts()
	// From Figure 4: I0=0, I1=I2=2, I3=2, B0=4, I4=4, B1=6.
	want := []int{0, 2, 2, 2, 4, 4, 6}
	for i, w := range want {
		if est[i] != w {
			t.Errorf("estart[%d] = %d, want %d", i, est[i], w)
		}
	}
}

func TestLStarts(t *testing.T) {
	sb := PaperFigure1()
	// Deadlines from the Section 5 example (AWCT 9.4): B0 at 5, B1 at 7.
	lst := sb.LStarts(nil, sb.TopoOrder(), []int{5, 7})
	// I3 ≤ 5−2 = 3; I0 ≤ min(3−2, ...) = 1; I4 ≤ 7−2 = 5;
	// I1, I2 ≤ 5−2 = 3.
	want := map[int]int{0: 1, 1: 3, 2: 3, 3: 3, 4: 5, 5: 5, 6: 7}
	for i, w := range want {
		if lst[i] != w {
			t.Errorf("lstart[%d] = %d, want %d", i, lst[i], w)
		}
	}
}

func TestLStartsDangling(t *testing.T) {
	// An instruction with no path to any exit must still finish before
	// the region ends: lstart = deadline(last) + λ(last) − λ(u).
	b := NewBuilder("dangling")
	d := b.Instr("d", Mem, 2)
	b.Exit("x", 1, 1.0)
	sb := b.MustFinish()
	lst := sb.LStarts(nil, sb.TopoOrder(), []int{4})
	if lst[d] != 4+1-2 {
		t.Errorf("dangling lstart = %d, want 3", lst[d])
	}
}

func TestAWCT(t *testing.T) {
	sb := PaperFigure1()
	// Section 2 example: B0 in cycle 4, B1 in 6 ⇒ AWCT = 7·0.3 + 9·0.7 = 8.4.
	got := sb.AWCT([]int{4, 6})
	if math.Abs(got-8.4) > 1e-9 {
		t.Errorf("AWCT = %g, want 8.4", got)
	}
	// Section 5: B0 in 4, B1 in 7 gives minAWCT 9.1 before enhancement...
	if got := sb.AWCT([]int{4, 7}); math.Abs(got-9.1) > 1e-9 {
		t.Errorf("AWCT = %g, want 9.1", got)
	}
	// ...and B0 in 5, B1 in 7 gives 9.4.
	if got := sb.AWCT([]int{5, 7}); math.Abs(got-9.4) > 1e-9 {
		t.Errorf("AWCT = %g, want 9.4", got)
	}
}

func TestCriticalAWCT(t *testing.T) {
	sb := PaperFigure1()
	// Exits at earliest starts: B0@4, B1@6 ⇒ 8.4.
	if got := sb.CriticalAWCT(); math.Abs(got-8.4) > 1e-9 {
		t.Errorf("CriticalAWCT = %g, want 8.4", got)
	}
}

func TestLongestDist(t *testing.T) {
	sb := PaperFigure1()
	d := sb.LongestDist()
	cases := []struct{ u, v, want int }{
		{0, 1, 2}, {0, 5, 4}, {0, 6, 6}, {0, 4, 4},
		{1, 5, 2}, {2, 5, 2}, {2, 6, 4}, {4, 6, 1}, {3, 4, 2}, {3, 6, 3},
		{1, 2, NegInf}, {5, 4, NegInf}, {6, 0, NegInf},
	}
	for _, c := range cases {
		if d[c.u][c.v] != c.want {
			t.Errorf("dist[%d][%d] = %d, want %d", c.u, c.v, d[c.u][c.v], c.want)
		}
	}
	for i := 0; i < sb.N(); i++ {
		if d[i][i] != 0 {
			t.Errorf("dist[%d][%d] = %d, want 0", i, i, d[i][i])
		}
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	sb := PaperFigure1()
	order := sb.TopoOrder()
	pos := make(map[int]int, len(order))
	for i, u := range order {
		pos[u] = i
	}
	for _, e := range sb.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %d→%d violated by topo order", e.From, e.To)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	orig := PaperFigure1()
	orig.LiveIns = append(orig.LiveIns, LiveIn{Name: "r1", Consumers: []int{0}})
	orig.LiveOuts = append(orig.LiveOuts, 5)
	text := orig.String()
	got, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v\ninput:\n%s", err, text)
	}
	if got.Name != orig.Name || got.N() != orig.N() || len(got.Edges) != len(orig.Edges) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, orig)
	}
	for i := range orig.Instrs {
		if got.Instrs[i] != orig.Instrs[i] {
			t.Errorf("instr %d: %+v vs %+v", i, got.Instrs[i], orig.Instrs[i])
		}
	}
	for i := range orig.Edges {
		if got.Edges[i] != orig.Edges[i] {
			t.Errorf("edge %d: %+v vs %+v", i, got.Edges[i], orig.Edges[i])
		}
	}
	if len(got.LiveIns) != 1 || got.LiveIns[0].Name != "r1" || len(got.LiveIns[0].Consumers) != 1 {
		t.Errorf("live-ins lost: %+v", got.LiveIns)
	}
	if len(got.LiveOuts) != 1 || got.LiveOuts[0] != 5 {
		t.Errorf("live-outs lost: %+v", got.LiveOuts)
	}
}

func TestReadAllMultiple(t *testing.T) {
	text := PaperFigure1().String() + Diamond().String() + Straight(5).String()
	blocks, err := ReadAll(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(blocks))
	}
	if blocks[0].Name != "paper-fig1" || blocks[1].Name != "diamond" || blocks[2].Name != "straight" {
		t.Errorf("names: %s %s %s", blocks[0].Name, blocks[1].Name, blocks[2].Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"inst 0 a int 1",                              // inst before superblock
		"superblock x\ninst 1 a int 1",                // id out of order
		"superblock x\ninst 0 a bogus 1",              // bad class
		"superblock x\ndep data 0 1",                  // malformed dep
		"superblock x\nfrobnicate",                    // unknown directive
		"superblock x\ninst 0 a branch 1 exit potato", // bad prob
		"superblock",                                  // missing name
		"superblock x\nexeccount potato",              // bad execcount
		"superblock x\nlivein v",                      // livein without consumers
	}
	for _, text := range cases {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", text)
		}
	}
}

// TestNaNExitProbabilityRejected: a NaN probability must fail
// validation, or the printed block (and so its fingerprint) would
// differ from the block that was parsed.
func TestNaNExitProbabilityRejected(t *testing.T) {
	if sb, err := Parse(nanExitBlock); err == nil {
		t.Fatalf("Parse accepted a NaN exit probability:\n%s", sb)
	}
	sb := PaperFigure1()
	sb.Instrs[4].Prob = math.NaN()
	if err := sb.Validate(); err == nil {
		t.Fatal("Validate accepted a NaN exit probability")
	}
}

func TestFixtures(t *testing.T) {
	for _, sb := range []*Superblock{PaperFigure1(), Diamond(), Straight(8), Wide(6)} {
		if err := sb.Validate(); err != nil {
			t.Errorf("%s: %v", sb.Name, err)
		}
	}
	if n := Straight(8).N(); n != 9 { // 8 chain + exit
		t.Errorf("Straight(8).N() = %d, want 9", n)
	}
	if n := Wide(6).N(); n != 7 {
		t.Errorf("Wide(6).N() = %d, want 7", n)
	}
}

func TestClone(t *testing.T) {
	sb := PaperFigure1()
	sb.LiveIns = []LiveIn{{Name: "v", Consumers: []int{0}}}
	cp := sb.Clone()
	cp.Instrs[0].Name = "changed"
	cp.LiveIns[0].Consumers[0] = 3
	if sb.Instrs[0].Name == "changed" {
		t.Error("Clone shares Instrs")
	}
	if sb.LiveIns[0].Consumers[0] == 3 {
		t.Error("Clone shares LiveIn consumers")
	}
	if cp.N() != sb.N() || len(cp.Exits()) != len(sb.Exits()) {
		t.Error("Clone lost structure")
	}
}

func TestDataConsumers(t *testing.T) {
	sb := PaperFigure1()
	got := sb.DataConsumers(0)
	want := map[int]bool{1: true, 2: true, 3: true}
	if len(got) != 3 {
		t.Fatalf("DataConsumers(0) = %v", got)
	}
	for _, c := range got {
		if !want[c] {
			t.Errorf("unexpected consumer %d", c)
		}
	}
	// B0's ctrl successor B1 is not a data consumer.
	if got := sb.DataConsumers(4); len(got) != 0 {
		t.Errorf("DataConsumers(B0) = %v, want empty", got)
	}
}
