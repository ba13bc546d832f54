package ir

import (
	"reflect"
	"strings"
	"testing"
)

// nanExitBlock has a NaN exit probability. NaN fails every ordered
// comparison, so it is not an exit (NaN > 0 is false) and a range check
// written as "reject if outside" lets it through: the block would keep a
// lone exit of probability 0.3 and print without "exit NaN".
const nanExitBlock = "superblock x\ninst 0 a int 1\ninst 1 b branch 1 exit NaN\ninst 2 c branch 1 exit 0.3\ndep ctrl 1 2 lat 1\n"

// FuzzParseSuperblock checks that arbitrary input never panics the
// parser and that anything it accepts prints the reference printer's
// bytes and survives a print/parse round trip field for field.
func FuzzParseSuperblock(f *testing.F) {
	f.Add(PaperFigure1().String())
	f.Add(Diamond().String())
	f.Add("superblock x\ninst 0 a int 1\ninst 1 b branch 1 exit 1\ndep data 0 1 lat 1\n")
	f.Add("superblock broken\ninst 0 a bogus 9")
	f.Add("")
	f.Add("#comment only\n\n")
	f.Add("superblock x\nexeccount 99\ninst 0 b branch 2 exit 1\nlivein v 0\nliveout 0\n")
	f.Add("superblock tiny\ninst 0 a branch 1 exit 1e-07\ninst 1 b branch 1 exit 0.9999999\ndep ctrl 0 1 lat 1\n")
	f.Add(nanExitBlock)
	f.Add(strings.Replace(nanExitBlock, "exit 0.3", "exit 1", 1))
	f.Fuzz(func(t *testing.T, input string) {
		sb, err := Parse(input)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		CheckPrinter(t, sb)
		text := sb.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("re-parse of printed form failed: %v\nprinted:\n%s", err, text)
		}
		if !reflect.DeepEqual(again, sb) {
			t.Fatalf("print/parse changed the block:\n%#v\nvs\n%#v", sb, again)
		}
	})
}

// FuzzReadAll checks multi-block streams: every block ReadAll accepts
// is valid, and the printed blocks, concatenated, read back as the same
// blocks field for field.
func FuzzReadAll(f *testing.F) {
	f.Add(PaperFigure1().String() + Diamond().String())
	f.Add("superblock a\ninst 0 x branch 1 exit 1\n\nsuperblock b\ninst 0 y branch 1 exit 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		blocks, err := ReadAll(strings.NewReader(input))
		if err != nil {
			return
		}
		var text strings.Builder
		for _, sb := range blocks {
			if err := sb.Validate(); err != nil {
				t.Fatalf("ReadAll returned an invalid block: %v", err)
			}
			text.WriteString(sb.String())
		}
		again, err := ReadAll(strings.NewReader(text.String()))
		if err != nil {
			t.Fatalf("re-reading the printed blocks failed: %v\nprinted:\n%s", err, text.String())
		}
		if !reflect.DeepEqual(again, blocks) {
			t.Fatalf("print/ReadAll changed the blocks:\n%#v\nvs\n%#v", blocks, again)
		}
	})
}
