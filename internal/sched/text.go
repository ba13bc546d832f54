package sched

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
)

// The .sched text format records a schedule separately from its
// superblock, so results can be saved, diffed and re-validated later:
//
//	schedule <superblock-name>
//	place <instr-id> <cycle> <cluster>
//	comm <producer> <cycle>          (producer < 0 encodes live-ins)
//	pin livein <cluster...>
//	pin liveout <cluster...>
//
// Reading requires the original superblock and machine; the names are
// cross-checked.

// WriteText serializes the schedule in .sched form. The output is
// canonical: communications are emitted in sorted (cycle, producer)
// order regardless of the order the scheduler materialized them in, so
// two equal schedules always serialize identically (golden tests and
// the service cache's warm ≡ cold check diff the bytes).
func (s *Schedule) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "schedule %s\n", s.SB.Name)
	for i, p := range s.Place {
		fmt.Fprintf(bw, "place %d %d %d\n", i, p.Cycle, p.Cluster)
	}
	for _, c := range sortedComms(s.Comms) {
		fmt.Fprintf(bw, "comm %d %d\n", c.Producer, c.Cycle)
	}
	if len(s.Pins.LiveIn) > 0 {
		fmt.Fprint(bw, "pin livein")
		for _, k := range s.Pins.LiveIn {
			fmt.Fprintf(bw, " %d", k)
		}
		fmt.Fprintln(bw)
	}
	if len(s.Pins.LiveOut) > 0 {
		fmt.Fprint(bw, "pin liveout")
		for _, k := range s.Pins.LiveOut {
			fmt.Fprintf(bw, " %d", k)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintln(bw)
	return bw.Flush()
}

// ReadSchedule parses one schedule for the given superblock and machine.
func ReadSchedule(r io.Reader, sb *ir.Superblock, m *machine.Config) (*Schedule, error) {
	sc := bufio.NewScanner(r)
	s := New(sb, m, Pins{})
	seenHeader := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			if seenHeader && text == "" {
				break // blank line terminates one schedule
			}
			continue
		}
		f := strings.Fields(text)
		switch f[0] {
		case "schedule":
			if len(f) != 2 {
				return nil, fmt.Errorf("sched: line %d: schedule wants a name", line)
			}
			if f[1] != sb.Name {
				return nil, fmt.Errorf("sched: line %d: schedule is for %q, superblock is %q", line, f[1], sb.Name)
			}
			seenHeader = true
		case "place":
			if !seenHeader {
				return nil, fmt.Errorf("sched: line %d: place before header", line)
			}
			id, cycle, cluster, err := threeInts(f)
			if err != nil {
				return nil, fmt.Errorf("sched: line %d: %v", line, err)
			}
			if id < 0 || id >= sb.N() {
				return nil, fmt.Errorf("sched: line %d: instruction %d out of range", line, id)
			}
			s.Place[id] = Placement{Cycle: cycle, Cluster: cluster}
		case "comm":
			if !seenHeader {
				return nil, fmt.Errorf("sched: line %d: comm before header", line)
			}
			if len(f) != 3 {
				return nil, fmt.Errorf("sched: line %d: comm wants 2 fields", line)
			}
			prod, err1 := strconv.Atoi(f[1])
			cyc, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("sched: line %d: bad comm fields", line)
			}
			s.Comms = append(s.Comms, Comm{Producer: prod, Cycle: cyc})
		case "pin":
			if len(f) < 2 {
				return nil, fmt.Errorf("sched: line %d: pin wants a kind", line)
			}
			ks := make([]int, 0, len(f)-2)
			for _, x := range f[2:] {
				k, err := strconv.Atoi(x)
				if err != nil {
					return nil, fmt.Errorf("sched: line %d: bad pin %q", line, x)
				}
				ks = append(ks, k)
			}
			switch f[1] {
			case "livein":
				s.Pins.LiveIn = ks
			case "liveout":
				s.Pins.LiveOut = ks
			default:
				return nil, fmt.Errorf("sched: line %d: unknown pin kind %q", line, f[1])
			}
		default:
			return nil, fmt.Errorf("sched: line %d: unknown directive %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenHeader {
		return nil, fmt.Errorf("sched: no schedule in input")
	}
	return s, nil
}

// sortedComms returns a copy of the communications in canonical (cycle,
// producer) order.
func sortedComms(comms []Comm) []Comm {
	out := append([]Comm(nil), comms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].Producer < out[j].Producer
	})
	return out
}

// FormatExitCycles renders an exit-cycle map (as returned by
// Schedule.ExitCycles) with sorted keys: Go map iteration order is
// random, so any emitter printing the map directly would differ between
// two runs of the same schedule.
func FormatExitCycles(cycles map[int]int) string {
	keys := make([]int, 0, len(cycles))
	for x := range cycles {
		keys = append(keys, x)
	}
	sort.Ints(keys)
	var b strings.Builder
	b.WriteByte('[')
	for i, x := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", x, cycles[x])
	}
	b.WriteByte(']')
	return b.String()
}

func threeInts(f []string) (a, b, c int, err error) {
	if len(f) != 4 {
		return 0, 0, 0, fmt.Errorf("%s wants 3 fields", f[0])
	}
	a, err1 := strconv.Atoi(f[1])
	b, err2 := strconv.Atoi(f[2])
	c, err3 := strconv.Atoi(f[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, fmt.Errorf("bad %s fields", f[0])
	}
	return a, b, c, nil
}
