// Package workload generates queries, databases and update streams for
// tests and benchmarks: random q-hierarchical queries (built from random
// q-trees, so they are q-hierarchical by construction), random arbitrary
// conjunctive queries, random graphs and matrix encodings, and random
// insert/delete streams with valid deletions.
package workload

import (
	"fmt"
	"math/rand"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
)

// Value is a database constant.
type Value = dyndb.Value

// QHierarchicalOptions controls RandomQHierarchical.
type QHierarchicalOptions struct {
	MaxVars       int  // tree size cap (>=1)
	MaxAtoms      int  // extra atoms beyond the per-leaf covering atoms
	AllowSelfJoin bool // reuse relation symbols across atoms
	AllowRepeats  bool // repeat variables inside an atom
	ForceBoolean  bool // make all variables quantified
}

// DefaultQHOptions are sensible small-query defaults for property tests.
func DefaultQHOptions() QHierarchicalOptions {
	return QHierarchicalOptions{MaxVars: 6, MaxAtoms: 3, AllowSelfJoin: true, AllowRepeats: true}
}

// RandomQHierarchical generates a random q-hierarchical query:
//
//  1. draw a random rooted tree on 1..MaxVars variables,
//  2. mark a root-connected prefix of nodes as free,
//  3. emit one atom per leaf covering its full root path (so every
//     variable occurs in some atom and every atom is a root path), plus up
//     to MaxAtoms extra atoms over random root paths.
//
// Every atom's variable set is a root path of the tree and the free set
// is root-connected, so the result is q-hierarchical by construction
// (Definition 4.1/Lemma 4.2); tests cross-check this against the
// brute-force Definition 3.1 predicate.
func RandomQHierarchical(rng *rand.Rand, opt QHierarchicalOptions) *cq.Query {
	if opt.MaxVars < 1 {
		opt.MaxVars = 1
	}
	n := 1 + rng.Intn(opt.MaxVars)
	parent := make([]int, n) // parent[0] unused
	for i := 1; i < n; i++ {
		parent[i] = rng.Intn(i)
	}
	vars := make([]string, n)
	for i := range vars {
		vars[i] = fmt.Sprintf("v%d", i)
	}
	// Free set: root-connected prefix by marking each node free with a
	// probability that requires the parent to be free.
	free := make([]bool, n)
	if !opt.ForceBoolean {
		free[0] = rng.Intn(4) != 0 // root free 75% of the time
		for i := 1; i < n; i++ {
			free[i] = free[parent[i]] && rng.Intn(2) == 0
		}
	}
	path := func(i int) []int {
		var rev []int
		for j := i; ; j = parent[j] {
			rev = append(rev, j)
			if j == 0 {
				break
			}
		}
		for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
			rev[a], rev[b] = rev[b], rev[a]
		}
		return rev
	}
	isLeaf := make([]bool, n)
	for i := range isLeaf {
		isLeaf[i] = true
	}
	for i := 1; i < n; i++ {
		isLeaf[parent[i]] = false
	}

	q := &cq.Query{Name: "Q"}
	relNames := map[string]int{} // relation → arity (for self-join reuse)
	mkAtom := func(p []int) {
		// Argument list: the path variables in random order, optionally
		// with repeats appended.
		args := make([]string, 0, len(p)+2)
		perm := rng.Perm(len(p))
		for _, pi := range perm {
			args = append(args, vars[p[pi]])
		}
		if opt.AllowRepeats {
			for rng.Intn(3) == 0 {
				args = append(args, args[rng.Intn(len(args))])
			}
		}
		var rel string
		if opt.AllowSelfJoin && len(relNames) > 0 && rng.Intn(3) == 0 {
			// Reuse an existing relation of matching arity if any.
			for name, ar := range relNames {
				if ar == len(args) {
					rel = name
					break
				}
			}
		}
		if rel == "" {
			rel = fmt.Sprintf("R%d_%d", len(q.Atoms), len(args))
			relNames[rel] = len(args)
		}
		q.Atoms = append(q.Atoms, cq.Atom{Rel: rel, Args: args})
	}
	for i := 0; i < n; i++ {
		if isLeaf[i] {
			mkAtom(path(i))
		}
	}
	extra := rng.Intn(opt.MaxAtoms + 1)
	for i := 0; i < extra; i++ {
		mkAtom(path(rng.Intn(n)))
	}
	for i := 0; i < n; i++ {
		if free[i] {
			q.Head = append(q.Head, vars[i])
		}
	}
	if err := q.Validate(); err != nil {
		panic(fmt.Sprintf("workload: generated invalid query %s: %v", q, err))
	}
	return q
}

// RandomStream generates count updates against the query's schema over an
// active domain of domainSize constants. Inserts draw fresh random
// tuples; deletes pick a uniformly random currently-present tuple, so the
// stream never contains no-op deletions unless the database is empty.
// pDelete in [0,1] is the fraction of deletions attempted.
func RandomStream(rng *rand.Rand, schema map[string]int, domainSize, count int, pDelete float64) []dyndb.Update {
	rels := make([]string, 0, len(schema))
	for r := range schema {
		rels = append(rels, r)
	}
	// Deterministic relation order for a given seed.
	for i := 1; i < len(rels); i++ {
		for j := i; j > 0 && rels[j] < rels[j-1]; j-- {
			rels[j], rels[j-1] = rels[j-1], rels[j]
		}
	}
	// present[rel] is the list of live tuples for delete sampling.
	present := map[string][][]Value{}
	var out []dyndb.Update
	key := func(t []Value) string { return fmt.Sprint(t) }
	index := map[string]map[string]int{} // rel → tuple key → slot in present
	for r := range schema {
		index[r] = map[string]int{}
	}
	for len(out) < count {
		rel := rels[rng.Intn(len(rels))]
		ar := schema[rel]
		if rng.Float64() < pDelete && len(present[rel]) > 0 {
			i := rng.Intn(len(present[rel]))
			t := present[rel][i]
			last := len(present[rel]) - 1
			present[rel][i] = present[rel][last]
			index[rel][key(present[rel][i])] = i
			present[rel] = present[rel][:last]
			delete(index[rel], key(t))
			out = append(out, dyndb.Delete(rel, t...))
			continue
		}
		t := make([]Value, ar)
		for j := range t {
			t[j] = Value(1 + rng.Intn(domainSize))
		}
		if _, dup := index[rel][key(t)]; dup {
			continue // set semantics: skip duplicate inserts
		}
		index[rel][key(t)] = len(present[rel])
		present[rel] = append(present[rel], t)
		out = append(out, dyndb.Insert(rel, t...))
	}
	return out
}

// RandomDatabase builds a database with roughly tuplesPerRel random
// tuples per schema relation over a domain of domainSize constants.
func RandomDatabase(rng *rand.Rand, schema map[string]int, domainSize, tuplesPerRel int) *dyndb.Database {
	db := dyndb.New()
	for rel, ar := range schema {
		if err := db.EnsureRelation(rel, ar); err != nil {
			panic(err)
		}
		for i := 0; i < tuplesPerRel; i++ {
			t := make([]Value, ar)
			for j := range t {
				t[j] = Value(1 + rng.Intn(domainSize))
			}
			if _, err := db.Insert(rel, t...); err != nil {
				panic(err)
			}
		}
	}
	return db
}

// FillIngestCore fills db with about n tuples in the proportions of the
// benchmark's ingest-core workload: E(x,y) 43 %, R(x,y,z) 33 %, S(x) 15 %,
// T(y) 8 %, with x drawn from a third of n values, y from a sixth and z
// from a thousand. The fill is deterministic in n.
func FillIngestCore(db *dyndb.Database, n int) {
	rng := rand.New(rand.NewSource(1))
	xs, ys := int64(n/3), int64(n/6)
	fill := func(rel string, share int, draw func() []Value) {
		db.Insert(rel, draw()...)
		for r := db.Relation(rel); r.Len() < n*share/100; {
			db.Insert(rel, draw()...)
		}
	}
	fill("E", 43, func() []Value { return []Value{rng.Int63n(xs), rng.Int63n(ys)} })
	fill("R", 33, func() []Value { return []Value{rng.Int63n(xs), rng.Int63n(ys), rng.Int63n(1000)} })
	fill("S", 15, func() []Value { return []Value{rng.Int63n(xs)} })
	fill("T", 8, func() []Value { return []Value{rng.Int63n(ys)} })
}
