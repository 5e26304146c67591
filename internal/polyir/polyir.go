// Package polyir defines Cinnamon's polynomial-level intermediate
// representation (paper §4.2, Fig. 7 ②③): a dataflow graph over
// ciphertexts whose operations have been committed to polynomial pairs,
// with concurrent-stream annotations from the DSL and keyswitch nodes that
// the keyswitch pass (§4.3.1) later assigns parallel algorithms and batch
// groups to.
package polyir

import "fmt"

// OpKind enumerates ciphertext-level operations. Each expands to a fixed
// set of polynomial operations during lowering (e.g. Add = two polynomial
// additions; MulCt = tensor + keyswitch + fold; Rotate = two automorphisms
// + keyswitch).
type OpKind int

// Operation kinds.
const (
	OpInput OpKind = iota
	OpOutput
	OpAdd
	OpSub
	OpNeg
	OpMulCt
	OpMulPlain
	OpAddPlain
	OpRotate
	OpConjugate
	OpRescale
	OpBootstrap
	// OpDropLevel truncates to DropTo limbs+1 without arithmetic (free).
	OpDropLevel
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	names := [...]string{"Input", "Output", "Add", "Sub", "Neg", "MulCt",
		"MulPlain", "AddPlain", "Rotate", "Conjugate", "Rescale", "Bootstrap", "DropLevel"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Node is one ciphertext-level operation in the graph.
type Node struct {
	ID     int
	Kind   OpKind
	Args   []*Node
	Name   string // input/output/plaintext symbol
	Rot    int    // rotation offset for OpRotate
	DropTo int    // target level for OpDropLevel
	Stream int    // concurrent execution stream (DSL-provided)
	Level  int    // inferred ciphertext level at this node's output

	// Keyswitch-pass annotations (valid for nodes that keyswitch:
	// MulCt, Rotate, Conjugate, Bootstrap-internal).
	KSAlgorithm KSAlgorithm
	KSBatch     int // batch group id; -1 = unbatched

	uses int
}

// KSAlgorithm mirrors the keyswitch package's algorithm choice at the IR
// level (kept separate so the IR does not depend on the runtime package).
type KSAlgorithm int

// Keyswitch algorithm annotations.
const (
	KSUnassigned KSAlgorithm = iota
	KSSequential
	KSCiFHER
	KSInputBroadcast
	KSOutputAggregation
)

// String implements fmt.Stringer.
func (a KSAlgorithm) String() string {
	names := [...]string{"Unassigned", "Sequential", "CiFHER", "InputBroadcast", "OutputAggregation"}
	if int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("KSAlgorithm(%d)", int(a))
}

// Graph is a program over ciphertexts.
type Graph struct {
	Nodes   []*Node
	Streams int // number of concurrent streams (≥ 1)
	nextID  int
}

// NewGraph returns an empty graph with one stream.
func NewGraph() *Graph { return &Graph{Streams: 1} }

// AddNode appends a node, assigning its ID.
func (g *Graph) AddNode(n *Node) *Node {
	n.ID = g.nextID
	g.nextID++
	n.KSBatch = -1
	g.Nodes = append(g.Nodes, n)
	for _, a := range n.Args {
		a.uses++
	}
	return n
}

// Uses returns how many nodes consume n's result.
func (n *Node) Uses() int { return n.uses }

// Deaths is the graph's liveness table: entry i lists the IDs of the values
// whose last consumer is g.Nodes[i], so an executor walking the nodes in
// order may return their storage right after that step. A value nothing
// consumes dies at its own position; an output never dies.
func (g *Graph) Deaths() [][]int {
	last := make(map[int]int, len(g.Nodes))
	for i, n := range g.Nodes {
		last[n.ID] = i
		for _, a := range n.Args {
			last[a.ID] = i
		}
	}
	deaths := make([][]int, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Kind != OpOutput {
			i := last[n.ID]
			deaths[i] = append(deaths[i], n.ID)
		}
	}
	return deaths
}

// NeedsKeySwitch reports whether the node expands to a keyswitch.
func (n *Node) NeedsKeySwitch() bool {
	switch n.Kind {
	case OpMulCt, OpRotate, OpConjugate:
		return true
	}
	return false
}

// Validate checks structural invariants: argument counts, level coherence
// (binary ops need equal levels; rescale drops one), and stream bounds.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		if n.Stream < 0 || n.Stream >= g.Streams {
			return fmt.Errorf("polyir: node %d stream %d out of range [0,%d)", n.ID, n.Stream, g.Streams)
		}
		want := map[OpKind]int{
			OpInput: 0, OpOutput: 1, OpAdd: 2, OpSub: 2, OpNeg: 1,
			OpMulCt: 2, OpMulPlain: 1, OpAddPlain: 1, OpRotate: 1,
			OpConjugate: 1, OpRescale: 1, OpBootstrap: 1, OpDropLevel: 1,
		}[n.Kind]
		if len(n.Args) != want {
			return fmt.Errorf("polyir: node %d (%v) has %d args, want %d", n.ID, n.Kind, len(n.Args), want)
		}
		switch n.Kind {
		case OpAdd, OpSub, OpMulCt:
			if n.Args[0].Level != n.Args[1].Level {
				return fmt.Errorf("polyir: node %d (%v) level mismatch %d vs %d",
					n.ID, n.Kind, n.Args[0].Level, n.Args[1].Level)
			}
		case OpRescale:
			if n.Args[0].Level < 1 {
				return fmt.Errorf("polyir: node %d rescales at level 0", n.ID)
			}
		case OpDropLevel:
			if n.DropTo < 0 || n.DropTo > n.Args[0].Level {
				return fmt.Errorf("polyir: node %d drops from level %d to %d", n.ID, n.Args[0].Level, n.DropTo)
			}
		}
	}
	return nil
}

// InferLevels recomputes node output levels from the inputs downward.
// Rescale drops a level; Bootstrap raises to the configured exit level.
func (g *Graph) InferLevels(bootstrapExitLevel int) {
	for _, n := range g.Nodes {
		switch n.Kind {
		case OpInput:
			// Level set at construction.
		case OpRescale:
			n.Level = n.Args[0].Level - 1
		case OpDropLevel:
			n.Level = n.DropTo
		case OpBootstrap:
			n.Level = bootstrapExitLevel
		default:
			if len(n.Args) > 0 {
				n.Level = n.Args[0].Level
			}
		}
	}
}

// Stats summarizes the graph for reports and sanity tests.
type Stats struct {
	Ops         map[OpKind]int
	KeySwitches int
	Bootstraps  int
}

// Stats computes op counts.
func (g *Graph) Stats() Stats {
	s := Stats{Ops: map[OpKind]int{}}
	for _, n := range g.Nodes {
		s.Ops[n.Kind]++
		if n.NeedsKeySwitch() {
			s.KeySwitches++
		}
		if n.Kind == OpBootstrap {
			s.Bootstraps++
		}
	}
	return s
}
