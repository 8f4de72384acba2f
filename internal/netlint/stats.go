package netlint

import (
	"fmt"

	"balsabm/internal/cell"
	"balsabm/internal/gates"
)

// Stats is the static report for one netlist: size counts plus the two
// cost models the paper's Table 3 discusses (area) and the structural
// proxy for speed (depth). All of it is computed from the netlist
// alone — no simulation.
type Stats struct {
	Cells       int     `json:"cells"`       // placed instances
	Nets        int     `json:"nets"`        // declared nets
	Literals    int     `json:"literals"`    // total input pins (literal-weighted area)
	Transistors int     `json:"transistors"` // transistor-weighted area (static CMOS estimate)
	Area        float64 `json:"area"`        // library area sum, µm²
	Depth       int     `json:"depth"`       // longest register-free path, in gates
	Critical    float64 `json:"critical"`    // longest register-free path, in ns
}

// String renders the one-line static report used by the NL200 info
// diagnostic and the flow's -stats output.
func (s Stats) String() string {
	return fmt.Sprintf("%d cells, %d nets, %d literals, %d transistors, area %.0f um2, depth %d, critical %.2f ns",
		s.Cells, s.Nets, s.Literals, s.Transistors, s.Area, s.Depth, s.Critical)
}

// transistors estimates the static-CMOS transistor count of a cell:
// INV 2, BUF 4 (two inverters), n-input NAND/NOR 2n, AND/OR 2n+2
// (NAND/NOR plus an inverter), n-input XOR 6n−2 (chained 10T XOR2s),
// n-input C-element 2n+4 (n-stack pull-up/-down plus a keeper), LATCH
// 8 (pass-gate latch). Unknown cells count 0 — CellsPass already
// reports them as NL003.
func transistors(c *cell.Cell) int {
	n := c.Inputs
	switch c.Kind {
	case cell.Inv:
		return 2
	case cell.Buf:
		return 4
	case cell.Nand, cell.Nor:
		return 2 * n
	case cell.And, cell.Or:
		return 2*n + 2
	case cell.Xor:
		return 6*n - 2
	case cell.C:
		return 2*n + 4
	case cell.Latch:
		return 8
	}
	return 0
}

// ComputeStats computes the static report. Instances whose cell is not
// in the library contribute their pin count to Literals but nothing to
// Transistors or Area (NL003 flags them). Depth mirrors
// gates.Netlist.CriticalDelay exactly — cycles cut at re-entry — but
// counts gates instead of summing delays, so the two figures describe
// the same path model.
func ComputeStats(nl *gates.Netlist, lib *cell.Library) Stats {
	st := Stats{
		Cells: len(nl.Instances),
		Nets:  len(nl.NetNames),
	}
	for _, inst := range nl.Instances {
		st.Literals += len(inst.Inputs)
		if c, ok := lib.Cells[inst.Cell]; ok {
			st.Transistors += transistors(c)
			st.Area += c.Area
		}
	}
	st.Depth = depth(nl)
	st.Critical = criticalSafe(nl, lib)
	return st
}

// criticalSafe is CriticalDelay tolerant of unknown cells (which
// lib.Get would panic on): it substitutes zero delay for them, so a
// netlist with NL003 findings still gets a report.
func criticalSafe(nl *gates.Netlist, lib *cell.Library) float64 {
	for _, inst := range nl.Instances {
		if _, ok := lib.Cells[inst.Cell]; !ok {
			return 0
		}
	}
	return nl.CriticalDelay(lib)
}

// depth computes the longest register-free path length in gates, with
// the same traversal as CriticalDelay (drivers walked backwards from
// every net via the netlist's cached driver index, feedback cut at
// re-entry).
func depth(nl *gates.Netlist) int {
	drivers := nl.DriverIndex()
	memo := make([]int, len(nl.NetNames))
	state := make([]int, len(nl.NetNames)) // 0 new, 1 visiting, 2 done
	var arrive func(net int) int
	arrive = func(net int) int {
		if state[net] == 2 {
			return memo[net]
		}
		if state[net] == 1 {
			return 0 // feedback cut
		}
		state[net] = 1
		best := 0
		if d := drivers[net]; d >= 0 {
			inst := nl.Instances[d]
			for _, in := range inst.Inputs {
				if t := arrive(in) + 1; t > best {
					best = t
				}
			}
		}
		state[net] = 2
		memo[net] = best
		return best
	}
	worst := 0
	for net := range nl.NetNames {
		if t := arrive(net); t > worst {
			worst = t
		}
	}
	return worst
}
