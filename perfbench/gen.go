package main

import (
	"fmt"
	"math/rand"
	"strings"

	"balsabm/internal/designs"
)

// The generators below derive every benchmark input from the run's
// seed. None of them consults the synthesizer: an input the flow
// rejects is an op failure and counts in the error rate.

// ---------------------------------------------------------------------
// ssem-sim: SSEM programs with a fixed dynamic instruction count.

// ssemMemWords is the SSEM datapath's memory size (designs.SSEMWithProgram).
const ssemMemWords = 32

// ssemDataBase is the first memory word the generated programs store
// to; every program fits below it.
const ssemDataBase = 16

// ssemProgram is one generated program and the final memory the
// reference interpreter computed for it.
type ssemProgram struct {
	Words []uint64
	Final [ssemMemWords]uint64
	Steps int // dynamic instruction count, HLT included
}

// genSSEMProgram builds a program of two countdown loops, each storing
// its counter on every iteration, separated by a forward JMP over a
// store that must never execute, and closed by a constant store and
// HLT. The seed picks how the fixed iteration budget splits between
// the loops, the loop step, the store addresses and the constant, so
// the dynamic instruction count 3*iters+6 is the same for every seed.
func genSSEMProgram(r *rand.Rand, iters int) (ssemProgram, error) {
	if iters < 2 || iters > 0xFFF {
		return ssemProgram{}, fmt.Errorf("ssem program: %d loop iterations, want 2..%d (LDI's immediate)", iters, 0xFFF)
	}
	n1 := 1 + r.Intn(iters-1)
	n2 := iters - n1
	step := 1 + r.Intn(3)
	if n1*step > 0xFFF || n2*step > 0xFFF {
		step = 1
	}
	addrs := r.Perm(ssemMemWords - ssemDataBase)
	a1, a2, a3, trap := ssemDataBase+addrs[0], ssemDataBase+addrs[1], ssemDataBase+addrs[2], ssemDataBase+addrs[3]
	c := 1 + r.Intn(0xFFF)
	neg := (-step) & 0x1FFF
	e := designs.Encode
	words := []uint64{
		e(designs.OpLDI, n1*step), // 0
		e(designs.OpADDI, neg),    // 1: loop 1
		e(designs.OpSTO, a1),      // 2
		e(designs.OpBNZ, 1),       // 3
		e(designs.OpJMP, 6),       // 4
		e(designs.OpSTO, trap),    // 5: skipped by the JMP
		e(designs.OpLDI, n2*step), // 6
		e(designs.OpADDI, neg),    // 7: loop 2
		e(designs.OpSTO, a2),      // 8
		e(designs.OpBNZ, 7),       // 9
		e(designs.OpLDI, c),       // 10
		e(designs.OpSTO, a3),      // 11
		e(designs.OpHLT, 0),       // 12
	}
	final, steps, err := ssemInterpret(words, 3*iters+64)
	if err != nil {
		return ssemProgram{}, err
	}
	return ssemProgram{Words: words, Final: final, Steps: steps}, nil
}

// ssemInterpret is the reference model of the SSEM ISA (op in bits
// 13..15, 13-bit argument): LDI loads the zero-extended immediate,
// ADDI adds the sign-extended immediate modulo 2^32, STO stores the
// accumulator, JMP jumps, BNZ jumps when the accumulator is non-zero,
// HLT stops. It returns the final memory and the number of
// instructions executed, HLT included.
func ssemInterpret(program []uint64, maxSteps int) (mem [ssemMemWords]uint64, steps int, err error) {
	if len(program) > ssemMemWords {
		return mem, 0, fmt.Errorf("ssem: program of %d words does not fit %d-word memory", len(program), ssemMemWords)
	}
	copy(mem[:], program)
	var pc, acc uint64
	for steps < maxSteps {
		if pc >= ssemMemWords {
			return mem, steps, fmt.Errorf("ssem: pc %d out of memory", pc)
		}
		ir := mem[pc]
		op, arg := int(ir>>13&7), ir&0x1FFF
		pc++
		steps++
		switch op {
		case designs.OpLDI:
			acc = arg
		case designs.OpADDI:
			imm := arg
			if imm&0x1000 != 0 {
				imm |= ^uint64(0x1FFF)
			}
			acc = (acc + imm) & 0xFFFFFFFF
		case designs.OpSTO:
			if arg >= ssemMemWords {
				return mem, steps, fmt.Errorf("ssem: store to %d out of memory", arg)
			}
			mem[arg] = acc
		case designs.OpJMP:
			pc = arg
		case designs.OpBNZ:
			if acc != 0 {
				pc = arg
			}
		case designs.OpHLT:
			return mem, steps, nil
		default:
			return mem, steps, fmt.Errorf("ssem: illegal opcode %d at %d", op, pc-1)
		}
	}
	return mem, steps, fmt.Errorf("ssem: no HLT within %d steps", maxSteps)
}

// ---------------------------------------------------------------------
// balsa-edit: generated Balsa designs and their edit/undo streams.

const (
	balsaVars        = 16 // 8-bit design variables
	balsaProcs       = 6  // procedures per design
	balsaAssignments = 8  // assignments per procedure body
)

// balsaDesign is a generated design held as per-procedure source
// fragments, so an edit can regenerate one procedure.
type balsaDesign struct {
	name  string
	procs []string
}

// source renders the whole Balsa source text.
func (d *balsaDesign) source() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "-- generated benchmark design %s\n", d.name)
	for v := 0; v < balsaVars; v++ {
		fmt.Fprintf(&sb, "variable v%d : 8\n", v)
	}
	for _, p := range d.procs {
		sb.WriteString("\n")
		sb.WriteString(p)
	}
	return sb.String()
}

// genBalsaDesign draws a fresh design.
func genBalsaDesign(r *rand.Rand, name string) *balsaDesign {
	d := &balsaDesign{name: name}
	for p := 0; p < balsaProcs; p++ {
		d.procs = append(d.procs, genBalsaProc(r, p))
	}
	return d
}

// Every procedure body is a tree of balsaAssignments assignments whose
// balsaAssignments-1 composition nodes are exactly these operators, in
// random positions. Fixing the mix (rather than drawing each node's
// operator independently) keeps the controllers a procedure compiles to
// of comparable size from seed to seed, so a run's cost does not hinge
// on whether its few designs drew many parallel branches.
var balsaOps = []byte{';', ';', ';', '|', '|', '?', '?'}

// genBalsaProc draws one procedure: two sync ports handshaking before
// and after a random tree of assignments.
func genBalsaProc(r *rand.Rand, idx int) string {
	vars := r.Perm(balsaVars)
	ops := append([]byte(nil), balsaOps...)
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	var sb strings.Builder
	fmt.Fprintf(&sb, "procedure p%d (sync p%dgo; sync p%ddone) is\nbegin\n  sync p%dgo ;\n  begin\n", idx, idx, idx, idx)
	genBalsaTree(r, &sb, balsaAssignments, vars, &ops, "    ")
	fmt.Fprintf(&sb, "\n  end ;\n  sync p%ddone\nend\n", idx)
	return sb.String()
}

// genBalsaTree writes a statement holding n assignments over the
// variables in vars, taking its composition operators from ops in
// pre-order: ';' sequence, '|' parallel, '?' if/else. Sequential and
// conditional composition share the variable set; parallel composition
// splits it, so parallel branches never touch a common variable.
func genBalsaTree(r *rand.Rand, sb *strings.Builder, n int, vars []int, ops *[]byte, indent string) {
	if n == 1 {
		dst := vars[r.Intn(len(vars))]
		a := vars[r.Intn(len(vars))]
		b := vars[r.Intn(len(vars))]
		switch r.Intn(4) {
		case 0:
			fmt.Fprintf(sb, "%sv%d := v%d + v%d", indent, dst, a, b)
		case 1:
			fmt.Fprintf(sb, "%sv%d := v%d xor %d", indent, dst, a, r.Intn(256))
		case 2:
			fmt.Fprintf(sb, "%sv%d := v%d and v%d", indent, dst, a, b)
		default:
			fmt.Fprintf(sb, "%sv%d := %d", indent, dst, r.Intn(256))
		}
		return
	}
	k := 1 + r.Intn(n-1)
	op := (*ops)[0]
	*ops = (*ops)[1:]
	if op == '|' && len(vars) < 4 {
		op = ';'
	}
	switch op {
	case '|':
		half := len(vars) / 2
		fmt.Fprintf(sb, "%sbegin\n", indent)
		genBalsaTree(r, sb, k, vars[:half], ops, indent+"  ")
		fmt.Fprintf(sb, "\n%send || begin\n", indent)
		genBalsaTree(r, sb, n-k, vars[half:], ops, indent+"  ")
		fmt.Fprintf(sb, "\n%send", indent)
	case '?':
		a := vars[r.Intn(len(vars))]
		b := vars[r.Intn(len(vars))]
		cond := fmt.Sprintf("v%d = v%d", a, b)
		if r.Intn(2) == 0 {
			cond = fmt.Sprintf("v%d < %d", a, r.Intn(256))
		}
		fmt.Fprintf(sb, "%sif %s then\n", indent, cond)
		genBalsaTree(r, sb, k, vars, ops, indent+"  ")
		fmt.Fprintf(sb, "\n%selse\n", indent)
		genBalsaTree(r, sb, n-k, vars, ops, indent+"  ")
		fmt.Fprintf(sb, "\n%send", indent)
	default:
		fmt.Fprintf(sb, "%sbegin\n", indent)
		genBalsaTree(r, sb, k, vars, ops, indent+"  ")
		fmt.Fprintf(sb, " ;\n")
		genBalsaTree(r, sb, n-k, vars, ops, indent+"  ")
		fmt.Fprintf(sb, "\n%send", indent)
	}
}

// undoEvery is the mean spacing of undo steps in an edit stream.
const undoEvery = 5

// editStream yields one client's submissions after its cold base
// design: mostly edits that regenerate one procedure, and about one
// step in undoEvery an undo that resubmits the source the last edit
// replaced, verbatim.
type editStream struct {
	r       *rand.Rand
	design  *balsaDesign
	history [][]string // procedure sets of earlier versions, oldest first
}

func newEditStream(r *rand.Rand, d *balsaDesign) *editStream {
	return &editStream{r: r, design: d}
}

// next advances the stream and returns the new source and whether the
// step was an undo.
func (s *editStream) next() (src string, undo bool) {
	if len(s.history) > 0 && s.r.Intn(undoEvery) == 0 {
		prev := s.history[len(s.history)-1]
		s.history = s.history[:len(s.history)-1]
		s.design.procs = prev
		return s.design.source(), true
	}
	s.history = append(s.history, append([]string(nil), s.design.procs...))
	p := s.r.Intn(balsaProcs)
	s.design.procs[p] = genBalsaProc(s.r, p)
	return s.design.source(), false
}
