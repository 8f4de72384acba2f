package techmap

import (
	"strings"
	"testing"

	"balsabm/internal/cell"
	"balsabm/internal/gates"
	"balsabm/internal/parallel"
)

// A combinational cycle outside the forced cut cannot be checked:
// CheckMapped returns the compile error instead of a verdict.
func TestCheckMappedRejectsUncutCycle(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "sequencer", sequencerSrc)
	nl, err := MapController(ctrl, SpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	// Bolt a self-loop onto a fresh net: x = OR2(x, in0). It settles
	// (x follows in0) but a single topological pass cannot order it.
	x := nl.Fresh("loop")
	nl.AddInstance("OR2", []int{x, nl.Inputs[0]}, x, 0)
	err = CheckMapped(ctrl, nl, lib)
	if err == nil || !strings.Contains(err.Error(), "cycle") || !strings.Contains(err.Error(), nl.Name) {
		t.Fatalf("CheckMapped of a netlist with an uncut cycle: err = %v", err)
	}
}

// A function net missing from the netlist is reported by name, and
// the check leaves the netlist as it found it: the netlist may be a
// shared synthesis-memo result.
func TestCheckMappedMissingNetLeavesNetlistUnchanged(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "sequencer", sequencerSrc)
	mapped, err := MapController(ctrl, SpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	nl := mapped.Rename(mapped.Name, map[string]string{"A1_r": "renamed"})
	nets := len(nl.NetNames)
	err = CheckMapped(ctrl, nl, lib)
	if err == nil || !strings.Contains(err.Error(), "A1_r") {
		t.Fatalf("err = %v, want one naming net A1_r", err)
	}
	if len(nl.NetNames) != nets || nl.HasNet("A1_r") {
		t.Fatalf("CheckMapped grew the netlist from %d to %d nets", nets, len(nl.NetNames))
	}
}

// tamper flips the cell driving the first primary output so the
// netlist's function differs from the cover everywhere: INV<->BUF for
// single-product roots, NANDk->ANDk otherwise.
func tamper(t *testing.T, nl *gates.Netlist) {
	t.Helper()
	d := nl.Driver(nl.Outputs[0])
	if d < 0 {
		t.Fatal("output has no driver")
	}
	inst := &nl.Instances[d]
	switch {
	case inst.Cell == "INV":
		inst.Cell = "BUF"
	case inst.Cell == "BUF":
		inst.Cell = "INV"
	case strings.HasPrefix(inst.Cell, "NAND"):
		inst.Cell = "AND" + inst.Cell[len("NAND"):]
	default:
		t.Fatalf("unexpected root cell %s", inst.Cell)
	}
}

// The check must detect a functional mismatch.
func TestCheckMappedDetectsTamper(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "sequencer", sequencerSrc)
	nl, err := MapController(ctrl, SpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	tamper(t, nl)
	if err := CheckMapped(ctrl, nl, lib); err == nil || !strings.Contains(err.Error(), "differs from cover") {
		t.Fatalf("tamper not detected: %v", err)
	}
}

// The verdict — including which sample point an error reports — must
// not depend on the worker count.
func TestCheckMappedOptDeterministicAcrossWorkers(t *testing.T) {
	lib := cell.AMS035()
	ctrl := controller(t, "call", callSrc)
	good, err := MapController(ctrl, SpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := MapController(ctrl, SpeedSplit, lib)
	if err != nil {
		t.Fatal(err)
	}
	tamper(t, bad)
	var msgs []string
	for _, workers := range []int{1, 2, 8} {
		pool := parallel.NewPool(workers)
		if err := CheckMappedOpt(ctrl, good, lib, CheckOptions{Pool: pool}); err != nil {
			t.Fatalf("workers=%d: good netlist rejected: %v", workers, err)
		}
		err := CheckMappedOpt(ctrl, bad, lib, CheckOptions{Pool: pool})
		if err == nil {
			t.Fatalf("workers=%d: tampered netlist passed", workers)
		}
		msgs = append(msgs, err.Error())
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("error depends on worker count:\n  %s\n  %s", msgs[0], m)
		}
	}
}
