package cq

import "sort"

// A homomorphism h from ϕ(x1,…,xk) to ϕ'(y1,…,yk) (Section 3 of the
// paper) is a variable mapping with h(xi) = yi for all i such that the
// h-image of every atom of ϕ is an atom of ϕ'. This file implements the
// backtracking search for homomorphisms and isomorphisms; Core (core.go)
// retracts a query with it. Query sizes are tiny compared to databases (data
// complexity), so exponential-in-||ϕ|| search is the intended trade-off —
// the same stance the paper takes for its poly(ϕ) factors.

// Homomorphism returns a homomorphism from q to target respecting the
// heads (h(q.Head[i]) = target.Head[i]), or nil if none exists. Both
// queries must have the same arity; otherwise no homomorphism exists and
// nil is returned.
func Homomorphism(q, target *Query) map[string]string {
	if len(q.Head) != len(target.Head) {
		return nil
	}
	h := make(map[string]string, len(q.Head))
	for i, x := range q.Head {
		if prev, ok := h[x]; ok && prev != target.Head[i] {
			return nil // repeated head var would need two images
		}
		h[x] = target.Head[i]
	}
	return searchHom(q, target, h)
}

// searchHom extends the partial map h to a full homomorphism q → target,
// returning the completed map or nil. h is consumed.
func searchHom(q, target *Query, h map[string]string) map[string]string {
	// Target atom index: relation → atoms.
	byRel := make(map[string][]Atom)
	for _, a := range target.Atoms {
		byRel[a.Rel] = append(byRel[a.Rel], a)
	}
	targetVars := target.Vars()

	// Order unassigned variables: most-constrained first (descending atom
	// membership count) for cheaper backtracking.
	occ := make(map[string]int)
	for _, a := range q.Atoms {
		for _, v := range a.Args {
			occ[v]++
		}
	}
	var todo []string
	for _, v := range q.Vars() {
		if _, ok := h[v]; !ok {
			todo = append(todo, v)
		}
	}
	sort.SliceStable(todo, func(i, j int) bool { return occ[todo[i]] > occ[todo[j]] })

	// consistent reports whether every fully-mapped atom of q has its image
	// in target.
	consistent := func() bool {
	atomLoop:
		for _, a := range q.Atoms {
			img := make([]string, len(a.Args))
			for i, v := range a.Args {
				w, ok := h[v]
				if !ok {
					continue atomLoop // not fully mapped yet
				}
				img[i] = w
			}
			found := false
			for _, t := range byRel[a.Rel] {
				if sameArgs(img, t.Args) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}

	if !consistent() {
		return nil
	}

	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(todo) {
			return true
		}
		v := todo[i]
		for _, w := range targetVars {
			h[v] = w
			if consistentFor(q, byRel, h, v) && rec(i+1) {
				return true
			}
		}
		delete(h, v)
		return false
	}
	if rec(0) {
		return h
	}
	return nil
}

// consistentFor checks only the atoms containing v that are now fully
// mapped — an incremental version of the consistency check.
func consistentFor(q *Query, byRel map[string][]Atom, h map[string]string, v string) bool {
atomLoop:
	for _, a := range q.Atoms {
		contains := false
		for _, u := range a.Args {
			if u == v {
				contains = true
				break
			}
		}
		if !contains {
			continue
		}
		img := make([]string, len(a.Args))
		for i, u := range a.Args {
			w, ok := h[u]
			if !ok {
				continue atomLoop
			}
			img[i] = w
		}
		found := false
		for _, t := range byRel[a.Rel] {
			if sameArgs(img, t.Args) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func sameArgs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// HomEquivalent reports whether q1 and q2 are homomorphically equivalent
// (homomorphisms exist in both directions). By Chandra–Merlin this is
// exactly result-equivalence on all databases.
func HomEquivalent(q1, q2 *Query) bool {
	return Homomorphism(q1, q2) != nil && Homomorphism(q2, q1) != nil
}

// Isomorphic reports whether q1 and q2 are isomorphic: a bijective
// variable renaming respecting heads maps the atom set of q1 onto that of
// q2. Cores are unique up to isomorphism, which tests rely on.
func Isomorphic(q1, q2 *Query) bool {
	d1, d2 := q1.DedupAtoms(), q2.DedupAtoms()
	if len(d1.Atoms) != len(d2.Atoms) || len(d1.Vars()) != len(d2.Vars()) {
		return false
	}
	h := Homomorphism(d1, d2)
	if h == nil {
		return false
	}
	// A homomorphism between queries with equally many variables and atoms
	// is an isomorphism iff it is injective on variables and surjective on
	// atoms; search specifically for one.
	return injectiveHom(d1, d2)
}

func injectiveHom(q, target *Query) bool {
	if len(q.Head) != len(target.Head) {
		return false
	}
	h := make(map[string]string)
	used := make(map[string]bool)
	for i, x := range q.Head {
		y := target.Head[i]
		if prev, ok := h[x]; ok {
			if prev != y {
				return false
			}
			continue
		}
		if used[y] {
			return false
		}
		h[x], used[y] = y, true
	}
	byRel := make(map[string][]Atom)
	for _, a := range target.Atoms {
		byRel[a.Rel] = append(byRel[a.Rel], a)
	}
	var todo []string
	for _, v := range q.Vars() {
		if _, ok := h[v]; !ok {
			todo = append(todo, v)
		}
	}
	targetVars := target.Vars()
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(todo) {
			// All variables injectively mapped and all atoms present in the
			// image; with equal atom counts after dedup, image covers target.
			imgAtoms := make(map[string]bool)
			for _, a := range q.Atoms {
				img := Atom{Rel: a.Rel, Args: make([]string, len(a.Args))}
				for j, v := range a.Args {
					img.Args[j] = h[v]
				}
				imgAtoms[img.String()] = true
			}
			return len(imgAtoms) == len(target.Atoms)
		}
		v := todo[i]
		for _, w := range targetVars {
			if used[w] {
				continue
			}
			h[v], used[w] = w, true
			if consistentFor(q, byRel, h, v) && rec(i+1) {
				return true
			}
			delete(h, v)
			used[w] = false
		}
		return false
	}
	return rec(0)
}
