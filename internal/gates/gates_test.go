package gates

import (
	"strings"
	"testing"

	"balsabm/internal/cell"
)

// buildHalfAdder wires sum = XOR(a,b), carry = AND(a,b).
func buildHalfAdder() *Netlist {
	nl := New("halfadder")
	a, b := nl.Net("a"), nl.Net("b")
	sum, carry := nl.Net("sum"), nl.Net("carry")
	nl.Inputs = append(nl.Inputs, a, b)
	nl.Outputs = append(nl.Outputs, sum, carry)
	nl.AddInstance("XOR2", []int{a, b}, sum, 1)
	nl.AddInstance("AND2", []int{a, b}, carry, 2)
	return nl
}

func TestAreaAndCritical(t *testing.T) {
	lib := cell.AMS035()
	nl := buildHalfAdder()
	wantArea := lib.Get("XOR2").Area + lib.Get("AND2").Area
	if got := nl.Area(lib); got != wantArea {
		t.Fatalf("area %v want %v", got, wantArea)
	}
	// Chain: INV -> AND2 -> output: critical = INV + AND2.
	nl2 := New("chain")
	a := nl2.Net("a")
	m := nl2.Net("m")
	out := nl2.Net("out")
	nl2.Inputs = append(nl2.Inputs, a)
	nl2.Outputs = append(nl2.Outputs, out)
	nl2.AddInstance("INV", []int{a}, m, 1)
	nl2.AddInstance("AND2", []int{m, a}, out, 2)
	want := lib.Get("INV").Delay + lib.Get("AND2").Delay
	if got := nl2.CriticalDelay(lib); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("critical %v want %v", got, want)
	}
}

func TestCriticalCutsFeedback(t *testing.T) {
	lib := cell.AMS035()
	nl := New("fb")
	a := nl.Net("a")
	y := nl.Net("y")
	nl.Inputs = append(nl.Inputs, a)
	nl.AddInstance("C2", []int{a, y}, y, 0)
	// Must terminate and report a finite delay.
	if d := nl.CriticalDelay(lib); d <= 0 || d > 1 {
		t.Fatalf("critical %v", d)
	}
}

func TestFreshAndConstZero(t *testing.T) {
	nl := New("x")
	a := nl.Fresh("t")
	b := nl.Fresh("t")
	if a == b {
		t.Fatal("fresh nets must be distinct")
	}
	c0 := nl.ConstZero()
	if c0 != nl.ConstZero() {
		t.Fatal("const zero must be stable")
	}
}

func TestDriverAndCounts(t *testing.T) {
	nl := buildHalfAdder()
	if d := nl.Driver(nl.Net("sum")); d != 0 {
		t.Fatalf("driver of sum = %d", d)
	}
	if d := nl.Driver(nl.Net("a")); d != -1 {
		t.Fatalf("input has driver %d", d)
	}
	counts := nl.CellCounts()
	if counts["XOR2"] != 1 || counts["AND2"] != 1 {
		t.Fatalf("counts %v", counts)
	}
}

// The lazy driver index must reflect structural edits: AddInstance
// invalidates it, interning new nets extends it, and netlists produced
// by Rename and Merge build their own.
func TestDriverIndexInvalidation(t *testing.T) {
	nl := buildHalfAdder()
	if d := nl.Driver(nl.Net("sum")); d != 0 {
		t.Fatalf("driver of sum = %d, want 0", d)
	}
	// The index is now built; placing a new instance must invalidate it.
	c := nl.Net("c")
	maj := nl.Net("maj")
	nl.AddInstance("AND2", []int{nl.Net("a"), c}, maj, 0)
	if d := nl.Driver(maj); d != 2 {
		t.Fatalf("driver of maj = %d after AddInstance, want 2", d)
	}
	// A net interned after the index was built is undriven, not
	// out-of-range.
	late := nl.Net("late")
	if d := nl.Driver(late); d != -1 {
		t.Fatalf("late net has driver %d", d)
	}
	// First driver wins for (invalid, NL001-flagged) multi-driven nets,
	// matching the original linear scan.
	nl.AddInstance("OR2", []int{nl.Net("a"), c}, nl.Net("sum"), 0)
	if d := nl.Driver(nl.Net("sum")); d != 0 {
		t.Fatalf("multi-driven sum resolves to %d, want first driver 0", d)
	}
	if d := nl.Driver(-1); d != -1 {
		t.Fatal("negative net must have no driver")
	}

	// Rename deep-copies; its index is fresh and edits to the copy must
	// not leak back.
	orig := buildHalfAdder()
	_ = orig.Driver(orig.Net("sum")) // build the original's index
	cp := orig.Rename("copy", map[string]string{"sum": "total"})
	if d := cp.Driver(cp.Net("total")); d != 0 {
		t.Fatalf("renamed copy: driver of total = %d", d)
	}
	cp.AddInstance("INV", []int{cp.Net("a")}, cp.Fresh("t"), 0)
	if len(orig.Instances) != 2 || orig.Driver(orig.Net("sum")) != 0 {
		t.Fatal("editing the copy disturbed the original")
	}

	// Merge builds a new netlist through AddInstance; its index must
	// resolve instances from both parts.
	m := Merge("both", []*Netlist{buildHalfAdder(), buildHalfAdder()})
	for _, net := range []string{"sum", "carry"} {
		if d := m.Driver(m.Net(net)); d < 0 {
			t.Fatalf("merged netlist: %s undriven", net)
		}
	}
}

func TestVerilogOutput(t *testing.T) {
	lib := cell.AMS035()
	nl := buildHalfAdder()
	v := nl.Verilog(lib)
	for _, want := range []string{
		"module halfadder (a, b, sum, carry);",
		"input a;", "output sum;",
		"XOR2 g0 (sum, a, b);",
		"endmodule",
	} {
		if !strings.Contains(v, want) {
			t.Fatalf("missing %q in:\n%s", want, v)
		}
	}
}

// Rename must deep-copy the structure and rewrite net names
// simultaneously (swaps included), leaving the original untouched.
func TestRename(t *testing.T) {
	n := New("orig")
	a, b := n.Net("a_r"), n.Net("b_r")
	out := n.Net("z_a")
	n.Inputs = []int{a, b}
	n.Outputs = []int{out}
	n.AddInstance("NAND2", []int{a, b}, out, 1)

	r := n.Rename("copy", map[string]string{"a_r": "b_r", "b_r": "a_r"})
	if r.Name != "copy" {
		t.Fatalf("name %q", r.Name)
	}
	if got := r.NetNames[a]; got != "b_r" {
		t.Fatalf("net %d renamed to %q, want b_r", a, got)
	}
	if got := r.NetNames[b]; got != "a_r" {
		t.Fatalf("net %d renamed to %q, want a_r", b, got)
	}
	if !r.HasNet("z_a") {
		t.Fatal("unmapped name must survive")
	}
	// Structure is shared by id, not name: the instance still reads
	// nets a and b.
	if len(r.Instances) != 1 || r.Instances[0].Inputs[0] != a {
		t.Fatalf("instance structure changed: %+v", r.Instances)
	}
	// Deep copy: mutating the copy must not touch the original.
	r.Instances[0].Inputs[0] = out
	if n.Instances[0].Inputs[0] != a {
		t.Fatal("Rename aliased instance inputs")
	}
	if n.NetNames[a] != "a_r" {
		t.Fatal("original net names changed")
	}
}
