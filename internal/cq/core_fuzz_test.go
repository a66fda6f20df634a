package cq

import (
	"fmt"
	"slices"
	"testing"
)

// coreRels are the relations a fuzzed query draws from.
var coreRels = [...]struct {
	name  string
	arity int
}{{"E", 2}, {"F", 1}, {"R", 3}}

// decodeCoreCase reads a valid query and a shuffled, renamed copy of it
// from data; every input decodes, running out of bytes reads zeros. Byte
// 0 gives the number of atoms (1–5) and byte 1 which of the variables
// v0–v4 the head lists, in that order (bit i for vi, kept only if the
// body uses it). Each atom is a byte naming its relation (mod 3) and one
// byte per argument naming its variable (mod 5), so variables repeat
// freely. The remaining bytes drive two Fisher–Yates shuffles: one of the
// atom order and one of the renaming vi ↦ wπ(i) that make the copy.
func decodeCoreCase(data []byte) (q, renamed *Query) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nAtoms := 1 + next()%5
	head := next()
	q = &Query{Name: "Q"}
	used := map[string]bool{}
	for range nAtoms {
		rel := coreRels[next()%len(coreRels)]
		args := make([]string, rel.arity)
		for j := range args {
			args[j] = fmt.Sprintf("v%d", next()%5)
			used[args[j]] = true
		}
		q.Atoms = append(q.Atoms, Atom{Rel: rel.name, Args: args})
	}
	for v := range 5 {
		if name := fmt.Sprintf("v%d", v); head>>v&1 == 1 && used[name] {
			q.Head = append(q.Head, name)
		}
	}
	shuffle := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := next() % (i + 1)
			p[i], p[j] = p[j], p[i]
		}
		return p
	}
	order, names := shuffle(len(q.Atoms)), shuffle(5)
	rename := func(v string) string { return fmt.Sprintf("w%d", names[v[1]-'0']) } // v is "v0"…"v4"
	renamed = &Query{Name: "Q"}
	for _, h := range q.Head {
		renamed.Head = append(renamed.Head, rename(h))
	}
	for _, i := range order {
		a := Atom{Rel: q.Atoms[i].Rel, Args: make([]string, len(q.Atoms[i].Args))}
		for j, v := range q.Atoms[i].Args {
			a.Args[j] = rename(v)
		}
		renamed.Atoms = append(renamed.Atoms, a)
	}
	return q, renamed
}

// encodeCoreCase is decodeCoreCase's inverse on queries over E, F and R
// with at most five atoms and variables whose head lists variables in
// order of first occurrence (head first): variable i of q.Vars() becomes
// vi. shuffle is appended as the shuffles' bytes.
func encodeCoreCase(q *Query, shuffle ...byte) []byte {
	idx := map[string]int{}
	for i, v := range q.Vars() {
		idx[v] = i
	}
	var head byte
	for _, h := range q.Head {
		head |= 1 << idx[h]
	}
	data := []byte{byte(len(q.Atoms) - 1), head}
	for _, a := range q.Atoms {
		for rel, r := range coreRels {
			if r.name == a.Rel {
				data = append(data, byte(rel))
			}
		}
		for _, v := range a.Args {
			data = append(data, byte(idx[v]))
		}
	}
	return append(data, shuffle...)
}

// bruteHom reports whether a homomorphism src → dst exists, by trying
// every map from src's variables to dst's: one that sends src.Head[i] to
// dst.Head[i] and every atom of src to an atom of dst. It shares no code
// with the backtracking search Core uses.
func bruteHom(src, dst *Query) bool {
	if len(src.Head) != len(dst.Head) {
		return false
	}
	atoms := map[string]bool{}
	for _, a := range dst.Atoms {
		atoms[a.String()] = true
	}
	vars, domain := src.Vars(), dst.Vars()
	if len(domain) == 0 {
		return len(vars) == 0
	}
	pick := make([]int, len(vars)) // an odometer over domain^vars
	h := map[string]string{}
	for {
		for i, v := range vars {
			h[v] = domain[pick[i]]
		}
		ok := true
		for i, x := range src.Head {
			ok = ok && h[x] == dst.Head[i]
		}
		for _, a := range src.Atoms {
			img := Atom{Rel: a.Rel, Args: make([]string, len(a.Args))}
			for j, v := range a.Args {
				img.Args[j] = h[v]
			}
			ok = ok && atoms[img.String()]
		}
		if ok {
			return true
		}
		i := 0
		for ; i < len(pick); i++ {
			if pick[i]++; pick[i] < len(domain) {
				break
			}
			pick[i] = 0
		}
		if i == len(pick) {
			return false
		}
	}
}

// FuzzCore checks Core against the definition of a homomorphic core,
// using bruteHom rather than the search Core is built on: the core is a
// subquery of q with q's head, it is hom-equivalent to q, it admits no
// homomorphism into a proper subset of its own atoms, and cores of
// isomorphic queries are isomorphic.
func FuzzCore(f *testing.F) {
	for _, q := range []*Query{
		qLoops, // Section 3: ∃x∃y (Exx ∧ Exy ∧ Eyy) retracts to ∃x Exx
		qPhi1,  // Appendix A: the head pins x and y, so ϕ1 is its own core
		MustParse("Q() :- E(x,y), E(y,z), E(z,x), E(u,u)"), // the triangle folds onto the loop
		MustParse("Q(x) :- E(x,y), E(z,y)"),                // E(z,y) folds onto E(x,y)
		MustParse("Q(x,y) :- E(x,y), E(y,x), F(x), R(x,y,z), R(x,y,x)"),
	} {
		if d, _ := decodeCoreCase(encodeCoreCase(q)); !Isomorphic(d, q) {
			f.Fatalf("seed %s decodes to %s", q, d)
		}
		f.Add(encodeCoreCase(q))
		f.Add(encodeCoreCase(q, 3, 1, 4, 1, 5, 9, 2, 6, 5))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, renamed := decodeCoreCase(data)
		if err := q.Validate(); err != nil {
			t.Fatalf("decoded an invalid query %s: %v", q, err)
		}
		c := Core(q)
		if !slices.Equal(c.Head, q.Head) {
			t.Fatalf("Core(%s) = %s changed the head", q, c)
		}
		body := map[string]bool{}
		for _, a := range q.DedupAtoms().Atoms {
			body[a.String()] = true
		}
		for _, a := range c.DedupAtoms().Atoms {
			if !body[a.String()] {
				t.Fatalf("Core(%s) = %s has atom %s, not one of q's", q, c, a)
			}
		}
		if len(c.DedupAtoms().Atoms) != len(c.Atoms) {
			t.Fatalf("Core(%s) = %s repeats an atom", q, c)
		}
		if !bruteHom(q, c) || !bruteHom(c, q) {
			t.Fatalf("Core(%s) = %s is not hom-equivalent to q", q, c)
		}
		// A homomorphism into a smaller subset is one into every superset,
		// so the subsets missing one atom stand for all proper subsets.
		for drop := range c.Atoms {
			sub := &Query{Name: c.Name, Head: c.Head}
			for i, a := range c.Atoms {
				if i != drop {
					sub.Atoms = append(sub.Atoms, a)
				}
			}
			if bruteHom(c, sub) {
				t.Fatalf("Core(%s) = %s is not minimal: it maps into %s", q, c, sub)
			}
		}
		if rc := Core(renamed); !Isomorphic(c, rc) {
			t.Fatalf("Core(%s) = %s, but Core(%s) = %s, not isomorphic", q, c, renamed, rc)
		}
	})
}
