package ir

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"testing"
)

// writeReference is the fmt-based printer AppendText replaced. It stays
// as the oracle the append printer must match byte for byte.
func writeReference(w io.Writer, sb *Superblock) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "superblock %s\n", sb.Name)
	fmt.Fprintf(bw, "execcount %d\n", sb.ExecCount)
	for _, in := range sb.Instrs {
		if in.IsExit() {
			fmt.Fprintf(bw, "inst %d %s %s %d exit %g\n", in.ID, in.Name, in.Class, in.Latency, in.Prob)
		} else {
			fmt.Fprintf(bw, "inst %d %s %s %d\n", in.ID, in.Name, in.Class, in.Latency)
		}
	}
	for _, e := range sb.Edges {
		fmt.Fprintf(bw, "dep %s %d %d lat %d\n", e.Kind, e.From, e.To, e.Latency)
	}
	for _, li := range sb.LiveIns {
		fmt.Fprintf(bw, "livein %s", li.Name)
		for _, c := range li.Consumers {
			fmt.Fprintf(bw, " %d", c)
		}
		fmt.Fprintln(bw)
	}
	for _, u := range sb.LiveOuts {
		fmt.Fprintf(bw, "liveout %d\n", u)
	}
	fmt.Fprintln(bw)
	return bw.Flush()
}

func referenceText(sb *Superblock) string {
	var b strings.Builder
	writeReference(&b, sb) // strings.Builder never errors
	return b.String()
}

// CheckPrinter fails tb unless sb prints the reference printer's bytes
// through String, Write and AppendText, and its canonical form equals
// the reference printer over a Clone with sorted edges. It is exported
// to the external test package.
func CheckPrinter(tb testing.TB, sb *Superblock) {
	tb.Helper()
	want := referenceText(sb)
	if got := sb.String(); got != want {
		tb.Fatalf("String differs from the reference printer:\n%s\nwant:\n%s", got, want)
	}
	var w strings.Builder
	if err := sb.Write(&w); err != nil || w.String() != want {
		tb.Fatalf("Write = %q, %v; want the reference bytes", w.String(), err)
	}
	if got := string(sb.AppendText([]byte("prefix"))); got != "prefix"+want {
		tb.Fatalf("AppendText did not append the reference bytes to its argument:\n%s", got)
	}
	sorted := sb.Clone()
	sorted.SortEdges()
	wantCanon := referenceText(sorted)
	if got := string(sb.AppendCanonical(nil)); got != wantCanon {
		tb.Fatalf("AppendCanonical differs from the reference over Clone+SortEdges:\n%s\nwant:\n%s", got, wantCanon)
	}
}
