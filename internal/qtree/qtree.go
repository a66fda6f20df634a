// Package qtree implements the tree-like characterisation of
// q-hierarchical conjunctive queries from Section 4 of the paper.
//
// A q-tree for a connected CQ ϕ (Definition 4.1) is a rooted directed tree
// T on vars(ϕ) such that (1) for every atom ψ the set vars(ψ) is a
// directed path in T starting at the root, and (2) if free(ϕ) ≠ ∅ then
// free(ϕ) is a connected subset of T containing the root. Lemma 4.2: ϕ is
// q-hierarchical iff every connected component has a q-tree, and a q-tree
// is computable in polynomial time. The construction below follows
// Claim 4.3: repeatedly pick a variable contained in every atom (preferring
// free variables), make it the root, strip it, and recurse on the connected
// components of the rest.
//
// The package also classifies queries along the taxonomy discussed in
// Sections 1.2 and 3: hierarchical (three variants), acyclic (GYO
// reduction), free-connex acyclic, q-hierarchical, and the q-hierarchicality
// of homomorphic cores that Theorems 3.4 and 3.5 hinge on.
package qtree

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"dyncq/internal/cq"
)

// ErrNotQHierarchical is wrapped by Build/BuildForest errors when the
// query is not q-hierarchical.
var ErrNotQHierarchical = errors.New("query is not q-hierarchical")

// Node is a q-tree node; it carries one variable of the query.
type Node struct {
	Var      string
	Free     bool
	Parent   int   // index of parent node, -1 for the root
	Children []int // child node indices in document order (free first)
	Depth    int   // root has depth 0
}

// Tree is a q-tree for one connected component. Nodes are stored in
// document order: pre-order, visiting free children before quantified
// ones, so the free nodes form a prefix Nodes[:FreeCount] (the subtree T'
// used by the enumeration procedure of Section 6.3).
type Tree struct {
	Nodes     []Node
	FreeCount int            // number of free nodes (prefix length)
	VarNode   map[string]int // variable → node index
}

// Path returns the node indices on the path from the root to node v,
// inclusive — the paper's path[v].
func (t *Tree) Path(v int) []int {
	var rev []int
	for u := v; u != -1; u = t.Nodes[u].Parent {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PathVars returns the variables on path[v] in root-to-v order.
func (t *Tree) PathVars(v int) []string {
	p := t.Path(v)
	out := make([]string, len(p))
	for i, u := range p {
		out[i] = t.Nodes[u].Var
	}
	return out
}

// String renders the tree in an indented ASCII form, e.g.
//
//	x (free)
//	├─ y (free)
//	│  └─ z
//	└─ y'
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(n int, prefix string, last bool, root bool)
	rec = func(n int, prefix string, last bool, root bool) {
		node := t.Nodes[n]
		if root {
			b.WriteString(node.Var)
		} else {
			b.WriteString(prefix)
			if last {
				b.WriteString("└─ ")
			} else {
				b.WriteString("├─ ")
			}
			b.WriteString(node.Var)
		}
		if node.Free {
			b.WriteString(" (free)")
		}
		b.WriteByte('\n')
		childPrefix := prefix
		if !root {
			if last {
				childPrefix += "   "
			} else {
				childPrefix += "│  "
			}
		}
		for i, c := range node.Children {
			rec(c, childPrefix, i == len(node.Children)-1, false)
		}
	}
	if len(t.Nodes) > 0 {
		rec(0, "", true, true)
	}
	return b.String()
}

// Build constructs a q-tree for a connected conjunctive query, following
// the inductive construction in the proof of Lemma 4.2. It returns an
// error wrapping ErrNotQHierarchical if none exists. The choice of root at
// each step is deterministic: among the candidate variables (contained in
// every atom of the current sub-hypergraph, free preferred), the one whose
// first occurrence in the query is earliest wins; sub-components are
// ordered by earliest first occurrence as well, with components containing
// free variables first. This reproduces the trees printed in the paper's
// Figures 1 and 2.
func Build(q *cq.Query) (*Tree, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !q.IsConnected() {
		return nil, fmt.Errorf("qtree.Build: query %s is not connected; use BuildForest", q)
	}
	// Variable order of first occurrence, for deterministic tie-breaks.
	order := make(map[string]int)
	for i, v := range q.Vars() {
		order[v] = i
	}
	// Hyperedges: distinct-variable sets of the atoms.
	var edges [][]string
	for _, a := range q.Atoms {
		edges = append(edges, a.Vars())
	}
	free := make(map[string]bool)
	for _, h := range q.Head {
		free[h] = true
	}

	t := &Tree{VarNode: make(map[string]int)}
	if err := build(t, edges, q.Vars(), free, order, -1, 0); err != nil {
		return nil, fmt.Errorf("query %s: %w", q, err)
	}
	// Renumber into document order (pre-order, free children first).
	t = t.renumber()
	return t, nil
}

// build recursively constructs the subtree for the sub-hypergraph (edges,
// vars), attaching it under parent at the given depth. Nodes are appended
// to t in construction order; renumber fixes document order afterwards.
func build(t *Tree, edges [][]string, vars []string, free map[string]bool, order map[string]int, parent, depth int) error {
	if len(vars) == 0 {
		return nil
	}
	// S: variables contained in every edge.
	inAll := make(map[string]int)
	for _, e := range edges {
		for _, v := range e {
			inAll[v]++
		}
	}
	var candidates []string
	for _, v := range vars {
		if inAll[v] == len(edges) {
			candidates = append(candidates, v)
		}
	}
	if len(candidates) == 0 {
		return fmt.Errorf("%w: no variable occurs in every atom of component {%s}",
			ErrNotQHierarchical, strings.Join(vars, ","))
	}
	anyFree := false
	for _, v := range vars {
		if free[v] {
			anyFree = true
			break
		}
	}
	var pool []string
	if anyFree {
		for _, v := range candidates {
			if free[v] {
				pool = append(pool, v)
			}
		}
		if len(pool) == 0 {
			return fmt.Errorf("%w: component {%s} has free variables but no free variable occurs in every atom",
				ErrNotQHierarchical, strings.Join(vars, ","))
		}
	} else {
		pool = candidates
	}
	root := pool[0]
	for _, v := range pool[1:] {
		if order[v] < order[root] {
			root = v
		}
	}

	idx := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{Var: root, Free: free[root], Parent: parent, Depth: depth})
	t.VarNode[root] = idx
	if parent >= 0 {
		t.Nodes[parent].Children = append(t.Nodes[parent].Children, idx)
	}

	// Remove root from every edge; drop empty edges; recurse on connected
	// components of the remainder.
	var rest [][]string
	for _, e := range edges {
		var ne []string
		for _, v := range e {
			if v != root {
				ne = append(ne, v)
			}
		}
		if len(ne) > 0 {
			rest = append(rest, ne)
		}
	}
	var restVars []string
	for _, v := range vars {
		if v != root {
			restVars = append(restVars, v)
		}
	}
	comps := components(rest, restVars)
	// Order components: free-containing first, then by earliest variable.
	sort.SliceStable(comps, func(i, j int) bool {
		fi, fj := comps[i].hasFree(free), comps[j].hasFree(free)
		if fi != fj {
			return fi
		}
		return comps[i].minOrder(order) < comps[j].minOrder(order)
	})
	for _, c := range comps {
		if err := build(t, c.edges, c.vars, free, order, idx, depth+1); err != nil {
			return err
		}
	}
	return nil
}

type component struct {
	edges [][]string
	vars  []string
}

func (c component) hasFree(free map[string]bool) bool {
	for _, v := range c.vars {
		if free[v] {
			return true
		}
	}
	return false
}

func (c component) minOrder(order map[string]int) int {
	m := int(^uint(0) >> 1)
	for _, v := range c.vars {
		if order[v] < m {
			m = order[v]
		}
	}
	return m
}

// components splits the sub-hypergraph into connected components.
// Variables not occurring in any edge are impossible here: every variable
// of a valid query occurs in some atom, and edges only shrink by removing
// the chosen root.
func components(edges [][]string, vars []string) []component {
	parent := make(map[string]string, len(vars))
	for _, v := range vars {
		parent[v] = v
	}
	var find func(string) string
	find = func(v string) string {
		if parent[v] == v {
			return v
		}
		parent[v] = find(parent[v])
		return parent[v]
	}
	for _, e := range edges {
		for _, v := range e[1:] {
			ra, rb := find(e[0]), find(v)
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	byRoot := make(map[string]*component)
	var roots []string
	for _, v := range vars {
		r := find(v)
		c := byRoot[r]
		if c == nil {
			c = &component{}
			byRoot[r] = c
			roots = append(roots, r)
		}
		c.vars = append(c.vars, v)
	}
	for _, e := range edges {
		c := byRoot[find(e[0])]
		c.edges = append(c.edges, e)
	}
	out := make([]component, 0, len(roots))
	for _, r := range roots {
		out = append(out, *byRoot[r])
	}
	return out
}

// renumber rewrites the tree into document order: pre-order traversal
// visiting free children before quantified children. Within each class
// the original (construction) order is kept.
func (t *Tree) renumber() *Tree {
	nt := &Tree{VarNode: make(map[string]int, len(t.Nodes))}
	var rec func(old, parent int)
	rec = func(old, parent int) {
		n := t.Nodes[old]
		idx := len(nt.Nodes)
		nt.Nodes = append(nt.Nodes, Node{Var: n.Var, Free: n.Free, Parent: parent, Depth: n.Depth})
		nt.VarNode[n.Var] = idx
		if parent >= 0 {
			nt.Nodes[parent].Children = append(nt.Nodes[parent].Children, idx)
		}
		var freeKids, boundKids []int
		for _, c := range n.Children {
			if t.Nodes[c].Free {
				freeKids = append(freeKids, c)
			} else {
				boundKids = append(boundKids, c)
			}
		}
		for _, c := range freeKids {
			rec(c, idx)
		}
		for _, c := range boundKids {
			rec(c, idx)
		}
	}
	if len(t.Nodes) > 0 {
		rec(0, -1)
	}
	for _, n := range nt.Nodes {
		if n.Free {
			nt.FreeCount++
		}
	}
	return nt
}

// BuildForest builds one q-tree per connected component of q, in component
// order. It fails with an error wrapping ErrNotQHierarchical if any
// component has no q-tree (Lemma 4.2: q is q-hierarchical iff all
// components have q-trees).
func BuildForest(q *cq.Query) ([]*Tree, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	comps := q.Components()
	out := make([]*Tree, 0, len(comps))
	for _, c := range comps {
		t, err := Build(c)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// IsQHierarchical decides whether q is q-hierarchical, via Lemma 4.2.
func IsQHierarchical(q *cq.Query) bool {
	_, err := BuildForest(q)
	return err == nil
}

// Validate checks that t is a q-tree for the connected query q per
// Definition 4.1: the nodes are exactly vars(q); every atom's variable
// set is a root-started directed path; and the free variables form a
// connected subset containing the root (when nonempty). It is independent
// of Build and is used to cross-check it, and to verify the paper's
// Figure 1 trees.
func Validate(t *Tree, q *cq.Query) error {
	vars := q.Vars()
	if len(t.Nodes) != len(vars) {
		return fmt.Errorf("tree has %d nodes, query has %d variables", len(t.Nodes), len(vars))
	}
	for _, v := range vars {
		if _, ok := t.VarNode[v]; !ok {
			return fmt.Errorf("variable %s missing from tree", v)
		}
	}
	// Structural sanity: parent/child consistency, single root.
	for i, n := range t.Nodes {
		if n.Parent == -1 && i != 0 {
			return fmt.Errorf("node %d (%s) is a second root", i, n.Var)
		}
		for _, c := range n.Children {
			if t.Nodes[c].Parent != i {
				return fmt.Errorf("child link %d→%d not mirrored", i, c)
			}
		}
	}
	// Condition (1): each atom's variables form a root path.
	for _, a := range q.Atoms {
		avs := a.Vars()
		deepest := avs[0]
		for _, v := range avs[1:] {
			if t.Nodes[t.VarNode[v]].Depth > t.Nodes[t.VarNode[deepest]].Depth {
				deepest = v
			}
		}
		path := t.PathVars(t.VarNode[deepest])
		if len(path) != len(avs) {
			return fmt.Errorf("atom %s: vars do not form a root path (path %v)", a, path)
		}
		onPath := make(map[string]bool, len(path))
		for _, v := range path {
			onPath[v] = true
		}
		for _, v := range avs {
			if !onPath[v] {
				return fmt.Errorf("atom %s: variable %s not on root path %v", a, v, path)
			}
		}
	}
	// Condition (2): free variables connected and containing the root.
	if len(q.Head) > 0 {
		if !t.Nodes[0].Free {
			return fmt.Errorf("free variables exist but root %s is quantified", t.Nodes[0].Var)
		}
		for i, n := range t.Nodes {
			if n.Free != q.IsFree(n.Var) {
				return fmt.Errorf("node %s free flag %v disagrees with query", n.Var, n.Free)
			}
			if n.Free && i != 0 && !t.Nodes[n.Parent].Free {
				return fmt.Errorf("free variable %s has quantified parent %s", n.Var, t.Nodes[n.Parent].Var)
			}
		}
	}
	return nil
}
