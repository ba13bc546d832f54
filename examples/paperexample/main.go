// Paperexample walks through the paper's running example: the Figure 1
// superblock, its Figure 4 scheduling graph, and the Section 5 search
// that rejects AWCT 9.1 and schedules at 9.4 on the 2-cluster machine.
//
//	go run ./examples/paperexample
package main

import (
	"fmt"
	"log"

	"vcsched/internal/core"
	"vcsched/internal/deduce"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sg"
)

func main() {
	sb := ir.PaperFigure1()
	fmt.Println("=== Figure 1: the superblock dependence graph ===")
	fmt.Print(sb)

	fmt.Println("=== Figure 4: the scheduling graph (1 cluster, 2 I + 1 B per cycle) ===")
	g := sg.Build(sb, machine.PaperExampleSG())
	fmt.Print(g)
	fmt.Println()

	m := machine.PaperExampleSection5()
	fmt.Printf("=== Section 5: scheduling on %s ===\n\n", m)

	// The minAWCT enhancement: B1 cannot sit at cycle 6.
	g2 := sg.Build(sb, m)
	_, err := deduce.NewState(sb, m, g2, []int{4, 6}, deduce.Options{PinExits: true})
	fmt.Printf("deadline vector B0=4, B1=6 (traditional minAWCT 8.4): %v\n", err)

	// AWCT 9.1 passes initial propagation but shaving finds the paper's
	// P-PLC contradiction on I4.
	st, err := deduce.NewState(sb, m, g2, []int{4, 7}, deduce.Options{PinExits: true})
	if err != nil {
		log.Fatalf("unexpected: %v", err)
	}
	fmt.Printf("deadline vector B0=4, B1=7 (AWCT 9.1): initial propagation ok;\n")
	fmt.Printf("  I0,I3,B0 share a virtual cluster: %v\n", st.VC().SameVC(0, 3) && st.VC().SameVC(3, 4))
	fmt.Printf("  deeper deduction: %v\n\n", st.Shave(4))

	// The full algorithm lands on 9.4, as the paper derives.
	s, stats, err := core.Schedule(sb, m, core.Options{
		Trace: func(f string, a ...any) { fmt.Printf("  "+f+"\n", a...) },
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal schedule (minAWCT %.1f, found at AWCT %.1f):\n%s", stats.MinAWCT, s.AWCT(), s.Format())
}
