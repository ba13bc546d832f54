// Package machine models statically scheduled clustered VLIW targets:
// a number of clusters, each with its own register file and functional
// units, connected by dedicated register buses. VLIW words flow through
// all clusters in lockstep; inter-cluster register values move via copy
// instructions that occupy a bus.
package machine

import (
	"fmt"
	"strings"

	"vcsched/internal/ir"
)

// Config describes one clustered VLIW machine. All clusters are
// homogeneous unless PerCluster overrides are installed (see
// SetClusterFU), which supports the paper's "extendable to heterogeneous
// configurations" remark.
type Config struct {
	Name     string
	Clusters int
	// FU[c] is the number of functional units of class c in each
	// (homogeneous) cluster. Copy-class entries are ignored: copies
	// execute on buses.
	FU [ir.NumClasses]int
	// Buses is the number of inter-cluster register buses shared by all
	// clusters.
	Buses int
	// BusLatency is the number of cycles a copy takes to move a value
	// between register files.
	BusLatency int
	// BusPipelined controls bus occupancy: when false (the paper's
	// 2-cycle-bus configuration) a copy occupies its bus for BusLatency
	// cycles; when true only for the issue cycle.
	BusPipelined bool

	// perCluster, when non-nil, overrides FU for individual clusters
	// (heterogeneous machines).
	perCluster map[int][ir.NumClasses]int
}

// SetClusterFU overrides the functional-unit table of one cluster,
// making the machine heterogeneous.
func (c *Config) SetClusterFU(cluster int, fu [ir.NumClasses]int) {
	if c.perCluster == nil {
		c.perCluster = make(map[int][ir.NumClasses]int)
	}
	c.perCluster[cluster] = fu
}

// ClusterFU returns the number of class-cl functional units in the given
// cluster.
func (c *Config) ClusterFU(cluster int, cl ir.Class) int {
	if fu, ok := c.perCluster[cluster]; ok {
		return fu[cl]
	}
	return c.FU[cl]
}

// TotalFU returns the machine-wide number of functional units of a
// class.
func (c *Config) TotalFU(cl ir.Class) int {
	total := 0
	for k := 0; k < c.Clusters; k++ {
		total += c.ClusterFU(k, cl)
	}
	return total
}

// MaxClusterFU returns the largest per-cluster count of class-cl units;
// on homogeneous machines this equals ClusterFU of any cluster.
func (c *Config) MaxClusterFU(cl ir.Class) int {
	m := c.FU[cl]
	for _, fu := range c.perCluster {
		if fu[cl] > m {
			m = fu[cl]
		}
	}
	return m
}

// IssueWidth returns the machine-wide issue width (sum of all FUs over
// all clusters, excluding buses).
func (c *Config) IssueWidth() int {
	total := 0
	for cl := 0; cl < ir.NumClasses; cl++ {
		if ir.Class(cl) == ir.Copy {
			continue
		}
		total += c.TotalFU(ir.Class(cl))
	}
	return total
}

// CheckUnits reports the first instruction class the block uses that
// no cluster has a functional unit of. No schedule of any kind exists
// for such a block, so the schedulers refuse it before any search.
func (c *Config) CheckUnits(sb *ir.Superblock) error {
	var used [ir.NumClasses]bool
	for _, in := range sb.Instrs {
		used[in.Class] = true
	}
	for cl, u := range used {
		if u && ir.Class(cl) != ir.Copy && c.TotalFU(ir.Class(cl)) == 0 {
			return fmt.Errorf("machine %q has no %s units", c.Name, ir.Class(cl))
		}
	}
	return nil
}

// BusOccupancy returns the number of cycles one copy keeps a bus busy.
func (c *Config) BusOccupancy() int {
	if c.BusPipelined || c.BusLatency < 1 {
		return 1
	}
	return c.BusLatency
}

// Heterogeneous reports whether any per-cluster override is installed.
func (c *Config) Heterogeneous() bool { return len(c.perCluster) > 0 }

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	if c.Clusters < 1 {
		return fmt.Errorf("machine %q: need at least one cluster", c.Name)
	}
	if c.Clusters > 1 {
		if c.Buses < 1 {
			return fmt.Errorf("machine %q: multi-cluster machine needs at least one bus", c.Name)
		}
		if c.BusLatency < 1 {
			return fmt.Errorf("machine %q: bus latency must be >= 1", c.Name)
		}
	}
	for cl := 0; cl < ir.NumClasses; cl++ {
		if ir.Class(cl) == ir.Copy {
			continue
		}
		if c.TotalFU(ir.Class(cl)) < 0 {
			return fmt.Errorf("machine %q: negative FU count for %s", c.Name, ir.Class(cl))
		}
	}
	for k, fu := range c.perCluster {
		if k < 0 || k >= c.Clusters {
			return fmt.Errorf("machine %q: per-cluster override for nonexistent cluster %d", c.Name, k)
		}
		for cl, n := range fu {
			if n < 0 {
				return fmt.Errorf("machine %q: cluster %d has negative %s FU count", c.Name, k, ir.Class(cl))
			}
		}
	}
	return nil
}

// String summarizes the configuration ("2clust 4-issue/clust 1bus
// 1lat").
func (c *Config) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d clusters", c.Name, c.Clusters)
	fmt.Fprintf(&b, " (int=%d fp=%d mem=%d br=%d per cluster)", c.FU[ir.Int], c.FU[ir.FP], c.FU[ir.Mem], c.FU[ir.Branch])
	fmt.Fprintf(&b, ", %d bus(es) lat %d", c.Buses, c.BusLatency)
	if !c.BusPipelined && c.BusLatency > 1 {
		b.WriteString(" (non-pipelined)")
	}
	return b.String()
}

// paperFU is the per-cluster FU table of the paper's evaluation
// machines: one unit of each class per cluster.
func paperFU() [ir.NumClasses]int {
	var fu [ir.NumClasses]int
	fu[ir.Int], fu[ir.FP], fu[ir.Mem], fu[ir.Branch] = 1, 1, 1, 1
	return fu
}

// TwoCluster1Lat is the paper's first evaluation machine: 2 clusters,
// 8-issue, single 1-cycle bus.
func TwoCluster1Lat() *Config {
	return &Config{Name: "2clust 1b 1lat", Clusters: 2, FU: paperFU(), Buses: 1, BusLatency: 1, BusPipelined: true}
}

// FourCluster1Lat is the paper's second evaluation machine: 4 clusters,
// 16-issue, single 1-cycle bus.
func FourCluster1Lat() *Config {
	return &Config{Name: "4clust 1b 1lat", Clusters: 4, FU: paperFU(), Buses: 1, BusLatency: 1, BusPipelined: true}
}

// FourCluster2Lat is the paper's third evaluation machine: 4 clusters,
// 16-issue, single 2-cycle non-pipelined bus.
func FourCluster2Lat() *Config {
	return &Config{Name: "4clust 1b 2lat", Clusters: 4, FU: paperFU(), Buses: 1, BusLatency: 2, BusPipelined: false}
}

// EvaluationConfigs returns the three machines of the paper's Section 6
// in presentation order.
func EvaluationConfigs() []*Config {
	return []*Config{TwoCluster1Lat(), FourCluster1Lat(), FourCluster2Lat()}
}

// ByKey returns the machine configuration for a short CLI/repro key:
// 2c1l, 4c1l, 4c2l (the paper's evaluation machines), sec5 (the worked
// example of Section 5) or fig4 (the scheduling-graph example). The keys
// are stable: repro files written by the fuzz harness reference machines
// by key.
func ByKey(key string) (*Config, error) {
	switch key {
	case "2c1l":
		return TwoCluster1Lat(), nil
	case "4c1l":
		return FourCluster1Lat(), nil
	case "4c2l":
		return FourCluster2Lat(), nil
	case "sec5":
		return PaperExampleSection5(), nil
	case "fig4":
		return PaperExampleSG(), nil
	}
	return nil, fmt.Errorf("machine: unknown key %q (want 2c1l, 4c1l, 4c2l, sec5 or fig4)", key)
}

// Key returns the ByKey key of one of the named configurations, or ""
// for a configuration that has no key.
func (c *Config) Key() string {
	for _, key := range []string{"2c1l", "4c1l", "4c2l", "sec5", "fig4"} {
		if m, _ := ByKey(key); m != nil && m.Name == c.Name {
			return key
		}
	}
	return ""
}

// PaperExampleSG is the single-cluster machine used for the scheduling
// graph example of Figure 4: issues 2 non-branch and 1 branch
// instruction per cycle.
func PaperExampleSG() *Config {
	var fu [ir.NumClasses]int
	fu[ir.Int], fu[ir.Branch] = 2, 1
	return &Config{Name: "fig4 1clust 2I+1B", Clusters: 1, FU: fu, Buses: 0, BusLatency: 0}
}

// PaperExampleSection5 is the two-cluster machine of the worked example
// in Section 5: each cluster issues one 2-cycle I and one 3-cycle B per
// cycle; a single 1-cycle bus communicates values.
func PaperExampleSection5() *Config {
	var fu [ir.NumClasses]int
	fu[ir.Int], fu[ir.Branch] = 1, 1
	return &Config{Name: "sec5 2clust 1I+1B 1b 1lat", Clusters: 2, FU: fu, Buses: 1, BusLatency: 1, BusPipelined: true}
}
