package cq

// Core returns the homomorphic core of q: a minimal subquery ϕ' of q such
// that there is a homomorphism from q to ϕ' but none from ϕ' to a proper
// subquery of ϕ' (Section 3 of the paper). By Chandra–Merlin the core is
// unique up to isomorphism and ϕ'(D) = ϕ(D) for every database D, which is
// why Theorems 3.4 and 3.5 classify queries by the q-hierarchicality of
// their cores.
//
// The computation iterates proper retractions: find an endomorphism of the
// current query that fixes every free variable and whose image misses at
// least one atom, restrict to the image, repeat. Core computation is
// NP-hard in ||ϕ|| in general; queries are small, so backtracking search
// is fine (data-complexity viewpoint).
func Core(q *Query) *Query {
	cur := q.DedupAtoms()
	for {
		next, shrunk := retract(cur)
		if !shrunk {
			return cur
		}
		cur = next
	}
}

// retract searches for an endomorphism of q (fixing the head pointwise)
// whose atom image is a proper subset of q's atoms. If found, it returns
// the image subquery and true.
func retract(q *Query) (*Query, bool) {
	// Try to find an endomorphism avoiding each atom in turn. An
	// endomorphism with a proper image must avoid some atom, so trying each
	// "excluded" atom is complete.
	for excl := range q.Atoms {
		target := &Query{Name: q.Name, Head: q.Head}
		for i, a := range q.Atoms {
			if i != excl {
				target.Atoms = append(target.Atoms, a)
			}
		}
		h := Homomorphism(q, target)
		if h == nil {
			continue
		}
		// Build the image subquery: the atoms of q actually hit by h. (The
		// image is contained in target's atoms, hence misses atom excl.)
		img := &Query{Name: q.Name, Head: append([]string(nil), q.Head...)}
		seen := make(map[string]bool)
		for _, a := range q.Atoms {
			ia := Atom{Rel: a.Rel, Args: make([]string, len(a.Args))}
			for j, v := range a.Args {
				ia.Args[j] = h[v]
			}
			if key := ia.String(); !seen[key] {
				seen[key] = true
				img.Atoms = append(img.Atoms, ia)
			}
		}
		return img, true
	}
	return nil, false
}

// BooleanVersion returns ∃x1…∃xk ϕ: the query with all free variables
// existentially quantified. Theorem 3.4 concerns the core of this query,
// while Theorem 3.5 concerns the core of ϕ itself — the paper stresses the
// difference with the example (Exx ∧ Exy ∧ Eyy).
func BooleanVersion(q *Query) *Query {
	b := q.Clone()
	b.Name = q.displayName() + "_bool"
	b.Head = nil
	return b
}
