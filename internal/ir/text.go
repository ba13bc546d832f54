package ir

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// The .sb text format is a line-oriented serialization of a superblock:
//
//	superblock <name>
//	execcount <n>
//	inst <id> <name> <class> <latency>
//	inst <id> <name> branch <latency> exit <prob>
//	dep <data|ctrl> <from> <to> lat <n>
//
// Blank lines and lines starting with '#' are ignored. Instruction IDs
// must appear in order starting at 0. Several superblocks may be
// concatenated in one stream; ReadAll reads them all.

// Write serializes the superblock in .sb form.
func (sb *Superblock) Write(w io.Writer) error {
	_, err := w.Write(sb.AppendText(make([]byte, 0, sb.textSizeHint())))
	return err
}

// String renders the superblock in .sb form.
func (sb *Superblock) String() string {
	return string(sb.AppendText(make([]byte, 0, sb.textSizeHint())))
}

// AppendText appends the superblock's .sb form to b and returns the
// extended slice. It is the one printer: Write, String and
// AppendCanonical all print through it.
func (sb *Superblock) AppendText(b []byte) []byte { return sb.appendText(b, nil) }

// AppendCanonical appends the canonical .sb form: AppendText's bytes
// with the edges in (From, To, Kind) order, so edge declaration order
// cannot change them. The superblock itself is not touched. Validate
// rejects duplicate (From, To, Kind) edges, so for a valid block the
// order is total and the bytes equal those of a Clone whose edges
// were sorted with SortEdges.
func (sb *Superblock) AppendCanonical(b []byte) []byte {
	return sb.appendText(b, sb.canonicalEdgeOrder())
}

// appendText prints the superblock with its edges visited in order
// (indices into sb.Edges; nil = declaration order). Probabilities keep
// the %g spelling: the shortest representation that round-trips.
func (sb *Superblock) appendText(b []byte, order []int) []byte {
	b = append(b, "superblock "...)
	b = append(b, sb.Name...)
	b = append(b, "\nexeccount "...)
	b = strconv.AppendInt(b, sb.ExecCount, 10)
	b = append(b, '\n')
	for _, in := range sb.Instrs {
		b = append(b, "inst "...)
		b = strconv.AppendInt(b, int64(in.ID), 10)
		b = append(b, ' ')
		b = append(b, in.Name...)
		b = append(b, ' ')
		b = append(b, in.Class.String()...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(in.Latency), 10)
		if in.IsExit() {
			b = append(b, " exit "...)
			b = strconv.AppendFloat(b, in.Prob, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	for i := range sb.Edges {
		e := &sb.Edges[i]
		if order != nil {
			e = &sb.Edges[order[i]]
		}
		b = append(b, "dep "...)
		b = append(b, e.Kind.String()...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.From), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(e.To), 10)
		b = append(b, " lat "...)
		b = strconv.AppendInt(b, int64(e.Latency), 10)
		b = append(b, '\n')
	}
	for _, li := range sb.LiveIns {
		b = append(b, "livein "...)
		b = append(b, li.Name...)
		for _, c := range li.Consumers {
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(c), 10)
		}
		b = append(b, '\n')
	}
	for _, u := range sb.LiveOuts {
		b = append(b, "liveout "...)
		b = strconv.AppendInt(b, int64(u), 10)
		b = append(b, '\n')
	}
	return append(b, '\n')
}

// textSizeHint is a capacity that holds a typical printed block
// without regrowing.
func (sb *Superblock) textSizeHint() int {
	return 32 + len(sb.Name) + 32*len(sb.Instrs) + 24*len(sb.Edges) + 16*len(sb.LiveIns) + 12*len(sb.LiveOuts)
}

// canonicalEdgeOrder returns the indices of sb.Edges in (From, To,
// Kind) order, or nil when the edges are declared in that order
// already (as in every block parsed from canonical text).
func (sb *Superblock) canonicalEdgeOrder() []int {
	sorted := true
	for i := 1; i < len(sb.Edges) && sorted; i++ {
		sorted = compareEdges(&sb.Edges[i-1], &sb.Edges[i]) <= 0
	}
	if sorted {
		return nil
	}
	order := make([]int, len(sb.Edges))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return compareEdges(&sb.Edges[i], &sb.Edges[j]) })
	return order
}

// compareEdges orders edges by (From, To, Kind).
func compareEdges(a, b *Edge) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	return cmp.Compare(a.Kind, b.Kind)
}

// ReadAll parses every superblock in the stream.
func ReadAll(r io.Reader) ([]*Superblock, error) {
	p := newParser(r)
	var out []*Superblock
	for {
		sb, err := p.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, sb)
	}
}

// Read parses exactly one superblock from the stream.
func Read(r io.Reader) (*Superblock, error) {
	sb, err := newParser(r).next()
	if err == io.EOF {
		return nil, fmt.Errorf("ir: no superblock in input")
	}
	return sb, err
}

// Parse parses one superblock from a string.
func Parse(s string) (*Superblock, error) { return Read(strings.NewReader(s)) }

type parser struct {
	sc      *bufio.Scanner
	line    int
	pending []string // "superblock" directive consumed while finishing the previous block
}

func newParser(r io.Reader) *parser {
	// The scanner starts with its own small buffer and doubles it for
	// long lines, up to a 16 MiB token.
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16*1024*1024)
	return &parser{sc: sc}
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("ir: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

// next returns the next superblock or io.EOF when the stream is
// exhausted.
func (p *parser) next() (*Superblock, error) {
	var b *Builder
	if p.pending != nil {
		f := p.pending
		p.pending = nil
		if len(f) != 2 {
			return nil, p.errf("superblock wants 1 field, got %d", len(f)-1)
		}
		b = NewBuilder(f[1])
	}
	flush := func() (*Superblock, error) {
		sb, err := b.Finish()
		if err != nil {
			return nil, fmt.Errorf("ir: line %d: %w", p.line, err)
		}
		return sb, nil
	}
	for p.sc.Scan() {
		p.line++
		line := strings.TrimSpace(p.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "superblock":
			if b != nil {
				// Start of the next block: a bufio.Scanner cannot push a
				// line back, so stash the directive for the next call.
				p.pending = f
				return flush()
			}
			if len(f) != 2 {
				return nil, p.errf("superblock wants 1 field, got %d", len(f)-1)
			}
			b = NewBuilder(f[1])
		case "execcount":
			if b == nil {
				return nil, p.errf("execcount before superblock")
			}
			if len(f) != 2 {
				return nil, p.errf("execcount wants 1 field")
			}
			n, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, p.errf("bad execcount: %v", err)
			}
			b.SetExecCount(n)
		case "inst":
			if b == nil {
				return nil, p.errf("inst before superblock")
			}
			if err := p.inst(b, f); err != nil {
				return nil, err
			}
		case "dep":
			if b == nil {
				return nil, p.errf("dep before superblock")
			}
			if err := p.dep(b, f); err != nil {
				return nil, err
			}
		case "livein":
			if b == nil {
				return nil, p.errf("livein before superblock")
			}
			if len(f) < 3 {
				return nil, p.errf("livein wants a name and at least one consumer")
			}
			consumers := make([]int, 0, len(f)-2)
			for _, s := range f[2:] {
				c, err := strconv.Atoi(s)
				if err != nil {
					return nil, p.errf("bad livein consumer %q", s)
				}
				consumers = append(consumers, c)
			}
			b.LiveIn(f[1], consumers...)
		case "liveout":
			if b == nil {
				return nil, p.errf("liveout before superblock")
			}
			if len(f) != 2 {
				return nil, p.errf("liveout wants 1 field")
			}
			u, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, p.errf("bad liveout id: %v", err)
			}
			b.LiveOut(u)
		default:
			return nil, p.errf("unknown directive %q", f[0])
		}
	}
	if err := p.sc.Err(); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, io.EOF
	}
	return flush()
}

func (p *parser) inst(b *Builder, f []string) error {
	if len(f) != 5 && len(f) != 7 {
		return p.errf("inst wants 4 or 6 fields, got %d", len(f)-1)
	}
	id, err := strconv.Atoi(f[1])
	if err != nil {
		return p.errf("bad inst id: %v", err)
	}
	class, err := ParseClass(f[3])
	if err != nil {
		return p.errf("%v", err)
	}
	lat, err := strconv.Atoi(f[4])
	if err != nil {
		return p.errf("bad latency: %v", err)
	}
	var got int
	if len(f) == 7 {
		if f[5] != "exit" {
			return p.errf("expected 'exit', got %q", f[5])
		}
		prob, err := strconv.ParseFloat(f[6], 64)
		if err != nil {
			return p.errf("bad exit probability: %v", err)
		}
		got = b.Exit(f[2], lat, prob)
		b.sb.Instrs[got].Class = class
	} else {
		got = b.Instr(f[2], class, lat)
	}
	if got != id {
		return p.errf("inst id %d out of order, expected %d", id, got)
	}
	return nil
}

func (p *parser) dep(b *Builder, f []string) error {
	if len(f) != 6 || f[4] != "lat" {
		return p.errf("dep wants: dep <kind> <from> <to> lat <n>")
	}
	var kind DepKind
	switch f[1] {
	case "data":
		kind = Data
	case "ctrl":
		kind = Ctrl
	default:
		return p.errf("unknown dep kind %q", f[1])
	}
	from, err1 := strconv.Atoi(f[2])
	to, err2 := strconv.Atoi(f[3])
	lat, err3 := strconv.Atoi(f[5])
	if err1 != nil || err2 != nil || err3 != nil {
		return p.errf("bad dep fields")
	}
	b.Dep(kind, from, to, lat)
	return nil
}
