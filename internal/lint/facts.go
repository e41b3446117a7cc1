package lint

import (
	"fmt"
	"go/token"
)

// This file is the facts engine: per-function facts seeded by local
// inspection and propagated over the call graph to a fixpoint. Callee facts
// infect callers ("calls something impure", "calls something that never
// returns"). Rounds of breadth-first relaxation over the node list give
// shortest chains, and scanning each node's call sites in source order
// makes the chosen chain — and therefore every reported message —
// deterministic.
//
// Every mark remembers the next hop toward its root cause and the call
// site inside the marked function, so a full chain can be reconstructed
// for any finding without storing whole paths.

// Mark is one propagated fact on one function.
type Mark struct {
	// Reason is set on seed marks only: the root cause, e.g. "time.Now
	// (wall clock)".
	Reason string
	// Via is the next node toward the root cause (nil on seeds).
	Via *Node
	// Pos is the responsible site inside this function: the seeding
	// expression, or the call site of Via.
	Pos token.Pos
}

// propagateUp computes the least fixpoint of "n is marked if n seeds or n
// calls a marked function". Pure-asserted nodes never take a mark, cutting
// propagation at the trust boundary. When useLitEdges is false, edges
// whose call site sits inside a function literal or `go` statement are
// ignored (termination facts do not cross a spawn).
func propagateUp(g *Graph, seeds map[*Node]*Mark, useLitEdges bool) map[*Node]*Mark {
	marked := make(map[*Node]*Mark, len(seeds))
	for n, m := range seeds {
		if !n.Pure {
			marked[n] = m
		}
	}
	for changed := true; changed; {
		changed = false
		round := make(map[*Node]*Mark)
		for _, n := range g.Nodes {
			if n.Pure || marked[n] != nil {
				continue
			}
			for _, e := range n.Calls {
				if !useLitEdges && e.InLit {
					continue
				}
				if m := marked[e.Callee]; m != nil {
					round[n] = &Mark{Via: e.Callee, Pos: e.Pos}
					changed = true
					break
				}
			}
		}
		for n, m := range round {
			marked[n] = m
		}
	}
	return marked
}

// chain renders the fact chain rooted at n as display hops: each entry is
// "pkg.Func (file:line)" ending at the seed's reason. The fset resolves
// positions; hops are capped defensively (cycles cannot occur in a
// fixpoint chain, but a cap keeps a future bug from hanging reports).
func chain(fset *token.FileSet, marks map[*Node]*Mark, n *Node) []string {
	var out []string
	for hops := 0; n != nil && hops < 64; hops++ {
		m := marks[n]
		if m == nil {
			out = append(out, n.ShortName())
			break
		}
		out = append(out, hop(fset, n, m.Pos))
		if m.Via == nil {
			out = append(out, m.Reason)
			break
		}
		n = m.Via
	}
	return out
}

// hop renders one chain entry: the function and the line in it that leads
// on to the next entry.
func hop(fset *token.FileSet, n *Node, at token.Pos) string {
	pos := fset.Position(at)
	return fmt.Sprintf("%s (%s:%d)", n.ShortName(), pos.Filename, pos.Line)
}

// chainTail renders the compact single-line form of the fact chain from n
// down to the root cause, without positions.
func chainTail(marks map[*Node]*Mark, n *Node) []string {
	var out []string
	for hops := 0; n != nil && hops < 64; hops++ {
		out = append(out, n.ShortName())
		m := marks[n]
		if m == nil {
			break
		}
		if m.Via == nil {
			out = append(out, m.Reason)
			break
		}
		n = m.Via
	}
	return out
}
