// Package cq defines conjunctive queries (CQs) as in Section 2 of
// Berkholz, Keppeler, Schweikardt: "Answering Conjunctive Queries under
// Updates" (PODS 2017): queries of the form
//
//	ϕ(x1,…,xk) = ∃y1 … ∃yℓ (ψ1 ∧ … ∧ ψd)
//
// over a relational schema, where the ψj are relational atoms whose
// arguments are variables, the xi are the free (output) variables, and all
// remaining variables are existentially quantified.
//
// The package provides the textual Datalog-style syntax used throughout
// this repository (see Parse), structural accessors (variables, connected
// components, atoms-of-a-variable sets), the hierarchical properties of
// Definition 3.1 and its variants, homomorphisms between queries, and
// homomorphic cores (Chandra–Merlin), which the paper's Theorems 3.4 and
// 3.5 classify by.
package cq

import (
	"fmt"
	"strings"
)

// Atom is a relational atom R(u1,…,ur). Arguments are variable names; the
// paper's atoms contain no constants, and neither do ours.
type Atom struct {
	Rel  string
	Args []string
}

// String renders the atom as R(u1,…,ur).
func (a Atom) String() string {
	return a.Rel + "(" + strings.Join(a.Args, ",") + ")"
}

// Vars returns the distinct variables of the atom in order of first
// occurrence.
func (a Atom) Vars() []string {
	seen := make(map[string]bool, len(a.Args))
	var out []string
	for _, v := range a.Args {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// equalAtoms reports syntactic equality.
func equalAtoms(a, b Atom) bool {
	if a.Rel != b.Rel || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Query is a k-ary conjunctive query. Head lists the free variables
// x1,…,xk in output order (empty for Boolean queries); Atoms is the
// quantifier-free body; every body variable not in Head is existentially
// quantified. Name is the head predicate name used for display only.
type Query struct {
	Name  string
	Head  []string
	Atoms []Atom
}

// Arity returns k, the number of free variables.
func (q *Query) Arity() int { return len(q.Head) }

// IsBoolean reports whether the query has no free variables.
func (q *Query) IsBoolean() bool { return len(q.Head) == 0 }

// String renders the query in the parseable syntax, e.g.
// "Q(x,y) :- R(x,y), S(y)."
func (q *Query) String() string {
	name := q.Name
	if name == "" {
		name = "Q"
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('(')
	b.WriteString(strings.Join(q.Head, ","))
	b.WriteString(") :- ")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte('.')
	return b.String()
}

// Vars returns all variables of the query in order of first occurrence
// (head first, then body).
func (q *Query) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(v string) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range q.Head {
		add(v)
	}
	for _, a := range q.Atoms {
		for _, v := range a.Args {
			add(v)
		}
	}
	return out
}

// IsFree reports whether v is a free variable of q.
func (q *Query) IsFree(v string) bool {
	for _, h := range q.Head {
		if h == v {
			return true
		}
	}
	return false
}

// QuantifiedVars returns the existentially quantified variables in order
// of first occurrence.
func (q *Query) QuantifiedVars() []string {
	var out []string
	for _, v := range q.Vars() {
		if !q.IsFree(v) {
			out = append(out, v)
		}
	}
	return out
}

// IsSelfJoinFree reports whether no relation symbol occurs in more than
// one atom (the paper's "self-join free", also called non-repeating).
func (q *Query) IsSelfJoinFree() bool {
	seen := make(map[string]bool)
	for _, a := range q.Atoms {
		if seen[a.Rel] {
			return false
		}
		seen[a.Rel] = true
	}
	return true
}

// Schema returns the relation symbols of the query with their arities.
func (q *Query) Schema() map[string]int {
	s := make(map[string]int)
	for _, a := range q.Atoms {
		s[a.Rel] = len(a.Args)
	}
	return s
}

// AtomsOf returns, for every variable, the set of indices of atoms that
// contain it — the paper's atoms(x). The returned map is freshly built.
func (q *Query) AtomsOf() map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for i, a := range q.Atoms {
		for _, v := range a.Args {
			s := out[v]
			if s == nil {
				s = make(map[int]bool)
				out[v] = s
			}
			s[i] = true
		}
	}
	return out
}

// Validate checks the structural well-formedness rules assumed throughout
// the paper and this repository: at least one atom, every atom has at
// least one argument, relation arities are consistent, head variables are
// pairwise distinct and occur in the body.
func (q *Query) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("query %s has no atoms", q.displayName())
	}
	arity := make(map[string]int)
	for _, a := range q.Atoms {
		if len(a.Args) == 0 {
			return fmt.Errorf("atom %s has no arguments", a.Rel)
		}
		if prev, ok := arity[a.Rel]; ok && prev != len(a.Args) {
			return fmt.Errorf("relation %s used with arities %d and %d", a.Rel, prev, len(a.Args))
		}
		arity[a.Rel] = len(a.Args)
	}
	seen := make(map[string]bool)
	body := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, v := range a.Args {
			body[v] = true
		}
	}
	for _, h := range q.Head {
		if seen[h] {
			return fmt.Errorf("head variable %s repeated", h)
		}
		seen[h] = true
		if !body[h] {
			return fmt.Errorf("head variable %s does not occur in the body", h)
		}
	}
	return nil
}

func (q *Query) displayName() string {
	if q.Name == "" {
		return "Q"
	}
	return q.Name
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	c := &Query{Name: q.Name, Head: append([]string(nil), q.Head...)}
	c.Atoms = make([]Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		c.Atoms[i] = Atom{Rel: a.Rel, Args: append([]string(nil), a.Args...)}
	}
	return c
}

// DedupAtoms returns a copy of q with syntactically duplicate atoms
// removed (conjunction is idempotent, so the query is equivalent).
func (q *Query) DedupAtoms() *Query {
	c := &Query{Name: q.Name, Head: append([]string(nil), q.Head...)}
	for _, a := range q.Atoms {
		dup := false
		for _, b := range c.Atoms {
			if equalAtoms(a, b) {
				dup = true
				break
			}
		}
		if !dup {
			c.Atoms = append(c.Atoms, Atom{Rel: a.Rel, Args: append([]string(nil), a.Args...)})
		}
	}
	return c
}

// Components splits q into its connected components (Section 4): maximal
// sub-queries whose variable sets are connected via shared atoms. Head
// variables keep their relative order; component order follows the first
// occurrence of any of the component's variables in the body.
func (q *Query) Components() []*Query {
	if len(q.Atoms) == 0 {
		return nil
	}
	// Union-find over variables.
	parent := make(map[string]string)
	var find func(string) string
	find = func(v string) string {
		if parent[v] == v {
			return v
		}
		parent[v] = find(parent[v])
		return parent[v]
	}
	for _, v := range q.Vars() {
		parent[v] = v
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, a := range q.Atoms {
		vs := a.Vars()
		for _, v := range vs[1:] {
			union(vs[0], v)
		}
	}
	// Group atoms by component root, preserving atom order.
	var roots []string
	atomsByRoot := make(map[string][]Atom)
	for _, a := range q.Atoms {
		r := find(a.Args[0])
		if _, ok := atomsByRoot[r]; !ok {
			roots = append(roots, r)
		}
		atomsByRoot[r] = append(atomsByRoot[r], a)
	}
	out := make([]*Query, 0, len(roots))
	for i, r := range roots {
		sub := &Query{Name: fmt.Sprintf("%s_c%d", q.displayName(), i)}
		for _, h := range q.Head {
			if find(h) == r {
				sub.Head = append(sub.Head, h)
			}
		}
		sub.Atoms = atomsByRoot[r]
		out = append(out, sub)
	}
	return out
}

// IsConnected reports whether q has exactly one connected component.
func (q *Query) IsConnected() bool { return len(q.Components()) == 1 }

// IsQHierarchicalByDefinition checks Definition 3.1 literally: for all
// variable pairs x, y, (i) atoms(x) and atoms(y) are comparable or
// disjoint, and (ii) if atoms(x) ⊊ atoms(y) and x is free then y is free.
// This brute-force check is the specification that the q-tree based
// decision procedure in package qtree is tested against.
func (q *Query) IsQHierarchicalByDefinition() bool {
	ao := q.AtomsOf()
	vars := q.Vars()
	subset := func(a, b map[int]bool) bool {
		for i := range a {
			if !b[i] {
				return false
			}
		}
		return true
	}
	disjoint := func(a, b map[int]bool) bool {
		for i := range a {
			if b[i] {
				return false
			}
		}
		return true
	}
	for _, x := range vars {
		for _, y := range vars {
			if x == y {
				continue
			}
			ax, ay := ao[x], ao[y]
			xiny, yinx := subset(ax, ay), subset(ay, ax)
			if !xiny && !yinx && !disjoint(ax, ay) {
				return false // violates (i)
			}
			if xiny && !yinx && q.IsFree(x) && !q.IsFree(y) {
				return false // violates (ii)
			}
		}
	}
	return true
}

// IsHierarchical checks condition (i) of Definition 3.1 for all variable
// pairs — the hierarchical property of Dalvi–Suciu (for Boolean queries)
// and Koutris–Suciu (for join queries).
func (q *Query) IsHierarchical() bool {
	return q.hierarchicalOver(q.Vars())
}

// IsHierarchicalFinkOlteanu checks condition (i) only for pairs of
// quantified variables — Fink and Olteanu's variant, under which every
// quantifier-free query is hierarchical (Section 3 of the paper).
func (q *Query) IsHierarchicalFinkOlteanu() bool {
	return q.hierarchicalOver(q.QuantifiedVars())
}

func (q *Query) hierarchicalOver(vars []string) bool {
	ao := q.AtomsOf()
	subset := func(a, b map[int]bool) bool {
		for i := range a {
			if !b[i] {
				return false
			}
		}
		return true
	}
	disjoint := func(a, b map[int]bool) bool {
		for i := range a {
			if b[i] {
				return false
			}
		}
		return true
	}
	for i, x := range vars {
		for _, y := range vars[i+1:] {
			ax, ay := ao[x], ao[y]
			if !subset(ax, ay) && !subset(ay, ax) && !disjoint(ax, ay) {
				return false
			}
		}
	}
	return true
}
