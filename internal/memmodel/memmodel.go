// Package memmodel names the memory consistency models (SC, x86-TSO,
// PSO) and holds the operational store-buffer machine that explores every
// interleaving of a litmus test under one of them. The machine is an
// independent method, not a second encoding of the axioms: the axiomatic
// checker in internal/axiom, which classifies Table II targets the way
// herd does in the PerpLE paper, is cross-validated against it, and
// everything the simulated machine in internal/sim produces must be
// allowed by it.
package memmodel

import (
	"fmt"

	"perple/internal/litmus"
)

// Model selects a memory consistency model.
type Model int

const (
	// SC is Lamport sequential consistency: a single interleaving of all
	// threads' operations in program order.
	SC Model = iota
	// TSO is total store ordering as implemented by x86 processors:
	// per-thread FIFO store buffers with store-to-load forwarding and a
	// single global order of stores.
	TSO
	// PSO is SPARC partial store ordering: per-thread, per-location store
	// buffers, so stores to different locations may drain out of program
	// order (W→W relaxed) in addition to TSO's W→R relaxation. Used by
	// the fault-injection experiment: a machine claiming TSO but
	// implementing PSO is a conformance bug PerpLE must catch.
	PSO
)

// Models lists the supported models from strongest to weakest.
var Models = []Model{SC, TSO, PSO}

func (m Model) String() string {
	switch m {
	case SC:
		return "SC"
	case TSO:
		return "TSO"
	case PSO:
		return "PSO"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// State is one final state of a litmus test execution: the register file
// and the final memory.
type State struct {
	Regs [][]int64
	Mem  map[litmus.Loc]int64
}
