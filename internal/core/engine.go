// Package core implements the paper's primary contribution: the dynamic
// data structure of Section 6 that maintains the result of a
// q-hierarchical conjunctive query under single-tuple updates with
//
//   - preprocessing time linear in the initial database,
//   - poly(ϕ) (constant data-complexity) update time,
//   - O(1) counting and Boolean answering, and
//   - constant-delay enumeration (Algorithm 1),
//
// as stated in Theorem 3.2.
//
// The structure follows Section 6.2 faithfully. For every q-tree node v
// and every assignment α to path[v) with constant a for v there may be an
// item [v, α, a]: a fixed-stride, pointer-free record in the node's arena
// (slab.go has the layout), found through a per-node hash table keyed by
// the path values (the "arrays A_v" of the paper, realised as tuplekey
// tables per the paper's footnote 2) and named, wherever the paper holds a
// pointer, by its 32-bit ref. Each item carries
//
//   - C^i_ψ for every ψ ∈ atoms(v): the number of expansions of the
//     item's assignment to vars(ψ) satisfied by the database — an item is
//     present iff some C^i_ψ > 0 (invariant (a) of Section 6.4);
//   - C^i (the weight), maintained by Lemma 6.3 as the product of the
//     rep-atom counts and the child list sums — an item is "fit" iff
//     C^i > 0, and the doubly linked child lists L^i_u contain exactly the
//     fit items, appended at the tail, so they run in "became fit" order;
//     with a sorted initial load this reproduces the paper's Figure 3
//     layout and Table 1 enumeration order exactly;
//   - C̃^i for free nodes, maintained by Lemma 6.4, whose root-list sum
//     C̃_start is |ϕ(D)| for a connected query.
//
// Disconnected queries are handled as in the start of Section 6: one
// structure per connected component, with counts multiplied and
// enumeration as a product (nested loops) over the components.
//
// Besides update, count and enumeration the engine answers the theorem's
// constant-time test (Contains: one index lookup per free node, no
// enumeration) and, on request, reports what a batch changed (ApplyDelta
// with emit set). The emission rule, in two sentences: a step on an atom
// whose root path holds the free items i₀…i_{f−1} changes the result iff
// i_{f−1} flips fitness while i₀…i_{f−2} are fit, and the changed tuples
// are exactly Algorithm 1 run with those states pinned, times the other
// components' results. Steps are netted per batch, so the cost is
// proportional to the delta, never to ϕ(D) (delta.go).
//
// The package is the structure and nothing else: an Engine holds no
// database. Its owner (pkg/dyncq.Workspace) applies each update to the
// store once and hands the engine the same net delta (ApplyDelta); the
// preprocessing phase scans a store the owner passes in (Rebuild).
package core

import (
	"fmt"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/qtree"
	"dyncq/internal/tuplekey"
)

// ErrNotQHierarchical is returned by New for queries outside the class the
// engine supports. By Theorems 3.3–3.5 such queries have no efficient
// dynamic algorithm at all (conditional on OMv/OV); use the IVM baseline
// in internal/ivm if you need to maintain them regardless.
var ErrNotQHierarchical = qtree.ErrNotQHierarchical

// Value is a database constant.
type Value = dyndb.Value

// cnode is a compiled q-tree node.
type cnode struct {
	name           string
	free           bool
	parent         int32 // -1 for the root
	depth          int32
	freeOrd        int32   // index among the free nodes in document order, -1 if quantified
	children       []int32 // free children first (document order)
	freeChildCount int32
	repSlots       []int32 // count slots of atoms represented at this node
	numTracked     int32   // number of atoms ψ with v ∈ vars(ψ)

	// The node's record layout (slab.go): word offsets of the own constant,
	// the C^i_ψ, the child sums C^i_u and C̃^i_u and the child list words,
	// and the record length.
	offOwn, offCounts, offSums, offFSums, offLists, stride int32
	// upList, upSum and upFSum are the words of the parent's record that
	// hold this node's list, C^i_u and C̃^i_u (non-root nodes).
	upList, upSum, upFSum int32
}

// catom is a compiled atom: its root path in the q-tree, how to extract
// the path values from an update tuple, and where its C^i_ψ counters live.
type catom struct {
	rel         string
	arity       int
	pathNodes   []int32    // node index per depth, root..rep(ψ)
	free        int32      // how many leading path nodes are free (they form a prefix)
	extract     []int32    // tuple position holding the value of path var j
	eqChecks    [][2]int32 // tuple positions that must agree (repeated vars)
	slotAtDepth []int32    // counts slot of this atom at pathNodes[j]
}

// comp is the per-connected-component structure: compiled tree and atoms
// plus the dynamic state, split into shards by the root value (see
// compShard).
type comp struct {
	nodes     []cnode
	atoms     []catom
	freeCount int
	hasFree   bool
	// freeNodes lists the free nodes in document order; it is the node
	// sequence y_1,…,y_k of Algorithm 1 (the free subtree T' in
	// pre-order, since free nodes are root-connected and document order
	// keeps parents before children).
	freeNodes []int32

	// shards partitions the dynamic state by hash of the root value: an
	// item [v, α, a] lives in the shard of α's first (root) constant, and
	// all its descendants share that constant, so every parent/child
	// ref and every fit list stays inside one shard. With a single
	// shard (the default) this is exactly the paper's layout; with more,
	// updates whose root values hash to different shards touch disjoint
	// state and can be applied by parallel workers (ApplyDelta).
	shards []compShard
}

// compShard is one shard of a component's dynamic state: the per-node
// item indexes (the "arrays A_v", restricted to root values hashing
// here) and the arenas their items live in (slab.go), this shard's slice
// of the start list, and its contribution to C_start/C̃_start (summed
// across shards by Count/Answer).
type compShard struct {
	index   []*tuplekey.Table[ref] // per node: the "array A_v", keyed at stride depth+1
	arenas  []arena                // per node: the items the index refers to
	start   uint64                 // the start list: head | tail<<32, refs into arenas[0]
	cStart  uint64                 // Σ C^i over fit root items of this shard
	cfStart uint64                 // Σ C̃^i over fit root items (root free only)
}

// reset makes the shard empty: an empty index and an empty arena per node,
// no start list. Whatever it held — chunks, slot arrays — is dropped.
func (sh *compShard) reset(nodes []cnode) {
	*sh = compShard{index: make([]*tuplekey.Table[ref], len(nodes)), arenas: make([]arena, len(nodes))}
	for i := range nodes {
		sh.index[i] = tuplekey.NewTable[ref](int(nodes[i].depth) + 1)
		sh.arenas[i].stride = int(nodes[i].stride)
	}
}

// totals sums C_start and C̃_start across the component's shards.
func (c *comp) totals() (cStart, cfStart uint64) {
	for si := range c.shards {
		cStart += c.shards[si].cStart
		cfStart += c.shards[si].cfStart
	}
	return cStart, cfStart
}

type atomRef struct {
	comp, atom int
}

// headLoc locates one head variable: its component, its position among
// the component's free nodes in document order (the enumeration-state
// index), and where its records keep their own constant.
type headLoc struct {
	comp    int
	freeOrd int32
	offOwn  int32
}

// Engine maintains ϕ(D) for one q-hierarchical query ϕ under updates.
// It is a pure maintenance structure: it holds no database and never
// writes one. Its owner (pkg/dyncq.Workspace) applies every update to
// the store exactly once and feeds the same net delta to ApplyDelta;
// Rebuild scans a store the owner hands it. An Engine is not safe for
// concurrent use — the workspace serialises writers around it; the read
// methods (Count, Answer, Contains, Enumerate) may share it among
// themselves.
type Engine struct {
	query   *cq.Query
	comps   []*comp
	rels    map[string][]atomRef // relation → atoms over it
	schema  map[string]int
	heads   []headLoc
	freeIdx []int // component → index among free components, -1 if Boolean
	version uint64

	// probes drive Contains: one index lookup per free node, keyed by
	// head positions.
	probes []probe

	// shardCount is the number of compShards per component (a power of
	// two); shardMask is shardCount-1, zero for the unsharded default.
	shardCount int
	shardMask  uint64
	// maxDepth is the longest atom root path, the scratch buffer size.
	maxDepth int

	// scratch serves the sequential update path (no per-update allocation).
	scratch pathScratch
	// acc is the sequential path's delta accumulator, built by the first
	// ApplyDelta that emits and reused afterwards.
	acc *deltaAcc
}

// New compiles the query into an engine representing the empty database,
// its per-component dynamic state split into the given number of shards
// (rounded up to a power of two) by root-value hash. One shard is the
// paper's exact layout, with the canonical enumeration order. More shards
// let ApplyDelta run shard-disjoint update procedures on worker
// goroutines; the price is that the enumeration order interleaves per
// shard instead of following the single canonical list (still
// deterministic for a fixed shard count). New fails with an error wrapping
// ErrNotQHierarchical if the query is not q-hierarchical, with a
// validation error for malformed queries, and for shards < 1. Compilation
// is poly(ϕ): it never touches data.
func New(q *cq.Query, shards int) (*Engine, error) {
	if shards < 1 {
		return nil, fmt.Errorf("core.New: shards %d < 1", shards)
	}
	pow := 1
	for pow < shards {
		pow *= 2
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	e := &Engine{
		query:      q,
		rels:       make(map[string][]atomRef),
		schema:     q.Schema(),
		shardCount: pow,
		shardMask:  uint64(pow - 1),
	}
	subs := q.Components()
	maxDepth := 0
	for ci, sub := range subs {
		tree, err := qtree.Build(sub)
		if err != nil {
			return nil, fmt.Errorf("core.New: %w", err)
		}
		c, err := compileComp(sub, tree, e.shardCount)
		if err != nil {
			return nil, fmt.Errorf("core.New: %w", err)
		}
		e.comps = append(e.comps, c)
		for ai, a := range c.atoms {
			e.rels[a.rel] = append(e.rels[a.rel], atomRef{ci, ai})
			if len(a.pathNodes) > maxDepth {
				maxDepth = len(a.pathNodes)
			}
		}
	}
	// Locate head variables for output assembly.
	for _, h := range q.Head {
		loc, ok := e.locate(h)
		if !ok {
			return nil, fmt.Errorf("core.New: head variable %s not found in any component", h)
		}
		e.heads = append(e.heads, loc)
	}
	e.compileProbes()
	e.freeIdx = make([]int, len(e.comps))
	nf := 0
	for ci, c := range e.comps {
		if c.hasFree {
			e.freeIdx[ci] = nf
			nf++
		} else {
			e.freeIdx[ci] = -1
		}
	}
	e.maxDepth = maxDepth
	e.scratch = newPathScratch(maxDepth)
	return e, nil
}

// Shards returns the number of shards per component.
func (e *Engine) Shards() int { return e.shardCount }

// shardOf maps a component-root value to its shard index. The value is
// diffused with a splitmix64-style finaliser so consecutive constants
// (the common case in generated workloads) spread across shards.
//
//dyncq:hot
func (e *Engine) shardOf(v Value) uint64 {
	if e.shardMask == 0 {
		return 0
	}
	z := uint64(v) + 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	return z & e.shardMask
}

func (e *Engine) locate(v string) (headLoc, bool) {
	for ci, c := range e.comps {
		for ni := range c.nodes {
			if c.nodes[ni].name == v && c.nodes[ni].free {
				return headLoc{comp: ci, freeOrd: c.nodes[ni].freeOrd, offOwn: c.nodes[ni].offOwn}, true
			}
		}
	}
	return headLoc{}, false
}

// compileComp builds the static structures for one connected component.
func compileComp(sub *cq.Query, tree *qtree.Tree, shards int) (*comp, error) {
	n := len(tree.Nodes)
	c := &comp{
		nodes:     make([]cnode, n),
		freeCount: tree.FreeCount,
		hasFree:   tree.FreeCount > 0,
		shards:    make([]compShard, shards),
	}
	for i, tn := range tree.Nodes {
		nd := &c.nodes[i]
		nd.name = tn.Var
		nd.free = tn.Free
		nd.parent = int32(tn.Parent)
		nd.depth = int32(tn.Depth)
		for _, ch := range tn.Children {
			nd.children = append(nd.children, int32(ch))
			if tree.Nodes[ch].Free {
				nd.freeChildCount++
			}
		}
	}
	for i := range c.nodes {
		if c.nodes[i].free {
			c.nodes[i].freeOrd = int32(len(c.freeNodes))
			c.freeNodes = append(c.freeNodes, int32(i))
		} else {
			c.nodes[i].freeOrd = -1
		}
	}
	nextSlot := make([]int32, n)
	for _, a := range sub.Atoms {
		ca := catom{rel: a.Rel, arity: len(a.Args)}
		// Representative node: the deepest variable of the atom. In a valid
		// q-tree the atom's variables are exactly path[rep].
		avs := a.Vars()
		rep := tree.VarNode[avs[0]]
		for _, v := range avs[1:] {
			if tree.Nodes[tree.VarNode[v]].Depth > tree.Nodes[rep].Depth {
				rep = tree.VarNode[v]
			}
		}
		path := tree.Path(rep)
		if len(path) != len(avs) {
			return nil, fmt.Errorf("atom %s: variables do not form a root path in the q-tree", a)
		}
		firstPos := make(map[string]int32, len(a.Args))
		for p, v := range a.Args {
			if _, ok := firstPos[v]; !ok {
				firstPos[v] = int32(p)
			} else {
				ca.eqChecks = append(ca.eqChecks, [2]int32{firstPos[v], int32(p)})
			}
		}
		for _, nodeIdx := range path {
			name := tree.Nodes[nodeIdx].Var
			pos, ok := firstPos[name]
			if !ok {
				return nil, fmt.Errorf("atom %s: path variable %s missing", a, name)
			}
			ca.pathNodes = append(ca.pathNodes, int32(nodeIdx))
			ca.extract = append(ca.extract, pos)
			ca.slotAtDepth = append(ca.slotAtDepth, nextSlot[nodeIdx])
			nextSlot[nodeIdx]++
		}
		for _, nodeIdx := range ca.pathNodes {
			if c.nodes[nodeIdx].free {
				ca.free++
			}
		}
		repSlot := ca.slotAtDepth[len(ca.slotAtDepth)-1]
		c.nodes[rep].repSlots = append(c.nodes[rep].repSlots, repSlot)
		c.atoms = append(c.atoms, ca)
	}
	for i := range c.nodes {
		c.nodes[i].numTracked = nextSlot[i]
		if nextSlot[i] == 0 {
			return nil, fmt.Errorf("node %s is tracked by no atom", c.nodes[i].name)
		}
		c.nodes[i].layout()
	}
	for i := range c.nodes {
		nd := &c.nodes[i]
		for sl, ch := range nd.children {
			u := &c.nodes[ch]
			u.upList, u.upSum, u.upFSum = nd.offLists+int32(sl), nd.offSums+int32(sl), nd.offFSums+int32(sl)
		}
	}
	for si := range c.shards {
		c.shards[si].reset(c.nodes)
	}
	return c, nil
}

// Query returns the compiled query.
func (e *Engine) Query() *cq.Query { return e.query }

// ApplyDelta runs the Section 6.4 update procedures, poly(ϕ) time each,
// for a net delta the owner applied to its store: survivors must be
// coalesced, schema-validated commands each of which changed the
// database (a single update is a delta of one; commands on relations the
// query does not mention only invalidate outstanding iterators). With
// workers > 1 on a sharded engine the per-atom operations run on worker
// goroutines (runDeltaParallel); otherwise they run sequentially in delta
// order, which on an unsharded engine reproduces the canonical
// enumeration order of a single-update replay. Either way the resulting
// structure — counters, lists, enumeration order — is the same for a
// fixed shard count. The version advances at most once per delta, so
// outstanding iterators are invalidated iff the structure may have moved.
//
// With emit set, ApplyDelta also returns what the delta did to ϕ(D): the
// tuples the result gained and lost, disjoint, each side in lexicographic
// order, freshly allocated. Their cost is proportional to their number
// (delta.go); without emit the call does no extra work and returns nil.
// A step's delta reads the sibling components' lists, so an emitting
// delta on an engine with several components stays sequential.
//
//dyncq:hot
func (e *Engine) ApplyDelta(survivors []dyndb.Update, workers int, emit bool) (added, removed [][]Value) {
	if len(survivors) == 0 {
		return nil, nil
	}
	e.version++
	var acc *deltaAcc
	if emit {
		if e.acc == nil {
			e.acc = e.newDeltaAcc()
		}
		acc = e.acc
	}
	if workers > 1 && e.shardCount > 1 && len(e.comps) > 0 && (!emit || len(e.comps) == 1 && e.comps[0].hasFree) {
		e.runDeltaParallel(survivors, workers, acc)
	} else {
		for _, u := range survivors {
			insert := u.Op == dyndb.OpInsert
			for _, ar := range e.rels[u.Rel] {
				c := e.comps[ar.comp]
				e.updateAtomScratch(c, &c.atoms[ar.atom], u.Tuple, insert, e.scratch, acc)
			}
		}
	}
	if !emit {
		return nil, nil
	}
	return e.netDelta(acc)
}

// Rebuild discards the structure and runs the preprocessing phase of
// Section 6.4 over the store's current contents in two passes instead of
// |D| single-tuple update procedures: a counting pass walks each matching
// atom's root path top-down, creating items and incrementing their C^i_ψ
// (countAtom), then one bottom-up pass per component computes every
// item's C^i and C̃^i once and links the fit items in lexicographic key
// order (buildWeights, sortLists) — which on the paper's Example 6.1
// database reproduces the Figure 3 layout and the Table 1 enumeration
// order, same as a sorted single-tuple replay. Both are linear in |D|;
// the bulk path pays the bottom-up propagation once per item instead of
// once per tuple. The owner calls it after replacing the store's
// contents and when a query registers against a populated store. A
// schema clash (a store relation whose arity contradicts the query)
// fails with the structure cleared — the engine then represents the
// empty result. Either way the version advances.
func (e *Engine) Rebuild(store *dyndb.Database) error {
	e.Clear()
	for _, rel := range store.Relations() {
		r := store.Relation(rel)
		if want, ok := e.schema[rel]; ok && want != r.Arity() {
			e.Clear()
			return fmt.Errorf("core: %s has arity %d in query, %d in the store", rel, want, r.Arity())
		}
		atoms := e.rels[rel]
		if len(atoms) == 0 {
			continue
		}
		r.Each(func(t []Value) bool {
			for _, ar := range atoms {
				e.countAtom(ar, t)
			}
			return true
		})
	}
	var scratch []listEntry
	for _, c := range e.comps {
		for si := range c.shards {
			e.buildWeights(c, &c.shards[si])
			scratch = sortLists(c, &c.shards[si], scratch)
		}
	}
	return nil
}

// Clear discards the structure (items, lists, counters), leaving the
// engine representing the empty database; the version advances. Every
// arena drops its chunks and every index its slot arrays.
func (e *Engine) Clear() {
	e.version++
	for _, c := range e.comps {
		for si := range c.shards {
			c.shards[si].reset(c.nodes)
		}
	}
}

// pathScratch is one writer's buffers for an atom's root path: per depth
// the path value, the item's ref (what links name) and its resolved
// record (what is read and written).
type pathScratch struct {
	vals  []Value
	items []ref
	recs  []record
}

func newPathScratch(depth int) pathScratch {
	return pathScratch{make([]Value, depth), make([]ref, depth), make([]record, depth)}
}

// updateAtomScratch is the per-atom part of the Section 6.4 update
// procedure: if the tuple matches the atom's repeated-variable pattern,
// walk the atom's root path top-down adjusting C^i_ψ (creating items on
// insert), then bottom-up recompute C^i and C̃^i by Lemmas 6.3/6.4, fix
// fit-list membership, propagate the sums, and drop items whose counters
// all reached zero.
// Every touched table, arena and list belongs to the shard of the root
// value vals[0], so calls whose root values hash to different shards are
// mutually independent — the property runDeltaParallel exploits. The
// caller supplies the scratch buffers (parallel workers have their own)
// and, when the step's result delta is wanted, the accumulator it is
// emitted into (nil otherwise; the rule is in delta.go).
//
//dyncq:hot
func (e *Engine) updateAtomScratch(c *comp, a *catom, tuple []Value, insert bool, scratch pathScratch, acc *deltaAcc) {
	for _, eq := range a.eqChecks {
		if tuple[eq[0]] != tuple[eq[1]] {
			return // tuple does not match the atom's variable pattern
		}
	}
	d := len(a.pathNodes)
	vals, items, recs := scratch.vals[:d], scratch.items[:d], scratch.recs[:d]
	for j := 0; j < d; j++ {
		vals[j] = tuple[a.extract[j]]
	}
	si := int(e.shardOf(vals[0]))
	sh := &c.shards[si]
	// last is the depth of the deepest free path item, the one whose
	// fitness flip changes the result; a Boolean component has none and
	// changes the result through its gate C_start > 0 instead.
	last := int(a.free) - 1
	grew, gateWas := false, false
	if acc != nil && last < 0 {
		cStart, _ := c.totals()
		gateWas = cStart > 0
	}

	// Top-down: fetch or create the items on the path, adjust C^i_ψ.
	for j := 0; j < d; j++ {
		nodeIdx := a.pathNodes[j]
		nd, ar := &c.nodes[nodeIdx], &sh.arenas[nodeIdx]
		count := nd.offCounts + a.slotAtDepth[j]
		if insert {
			// One probe finds the item or claims its slot.
			slot, existed := sh.index[nodeIdx].Ref(vals[:j+1])
			if !existed {
				var parent ref
				if j > 0 {
					parent = items[j-1]
				}
				*slot = ar.alloc(nd, vals[j], parent)
			}
			items[j], recs[j] = *slot, ar.rec(*slot)
			recs[j][count]++
		} else {
			r, ok := sh.index[nodeIdx].Get(vals[:j+1])
			if !ok {
				panic(fmt.Sprintf("core: missing item for %s at node %s during delete (corrupted structure)",
					a.rel, nd.name))
			}
			items[j], recs[j] = r, ar.rec(r)
			recs[j][count]--
		}
	}

	// Bottom-up: recompute weights, maintain lists and sums.
	for j := d - 1; j >= 0; j-- {
		nodeIdx := a.pathNodes[j]
		nd, ar := &c.nodes[nodeIdx], &sh.arenas[nodeIdx]
		it := recs[j]
		oldW := it[recWeight]
		w, f := nd.weights(it)
		it[recWeight] = w
		var oldF uint64
		if nd.free {
			oldF, it[recFWeight] = it[recFWeight], f
		}

		list := &sh.start
		if j == 0 {
			sh.cStart += w - oldW
			sh.cfStart += f - oldF
		} else {
			p := recs[j-1]
			p[nd.upSum] += w - oldW
			if nd.free {
				p[nd.upFSum] += f - oldF
			}
			list = &p[nd.upList]
		}

		// Fit-list membership: L lists contain exactly the fit items.
		if w > 0 && !it.inList() {
			ar.link(list, items[j], it)
			if j == last {
				grew = true
			}
		} else if w == 0 && it.inList() {
			if acc != nil && j == last && allFit(recs[:j]) {
				e.emitStep(acc, c, a, si, recs, -1)
			}
			ar.unlink(list, it)
		}

		// Invariant (a): drop the item once no atom supports it.
		if !insert && allZero(it[nd.offCounts:nd.offSums]) {
			sh.index[nodeIdx].Delete(vals[:j+1])
			ar.recycle(items[j], it)
		}
	}

	if acc == nil {
		return
	}
	if last < 0 {
		cStart, _ := c.totals()
		if gate := cStart > 0; gate != gateWas {
			sign := int8(-1)
			if gate {
				sign = 1
			}
			e.emitStep(acc, c, a, si, recs, sign)
		}
	} else if grew && allFit(recs[:a.free]) {
		e.emitStep(acc, c, a, si, recs, 1)
	}
}

// weights computes an item's C^i and C̃^i from its counters and child
// sums. Lemma 6.3: C^i = Π_{ψ∈rep(v)} C^i_ψ · Π_{u∈N(v)} C^i_u (rep-atom
// counts are 0/1 under set semantics). Lemma 6.4: C̃^i = 0 if C^i = 0, else
// Π over the free children of C̃^i_u; it is 0 for a quantified node, which
// has no such word.
//
//dyncq:hot
func (nd *cnode) weights(it record) (w, f uint64) {
	for _, s := range nd.repSlots {
		if it[nd.offCounts+s] == 0 {
			return 0, 0
		}
	}
	w = 1
	for _, sum := range it[nd.offSums:nd.offFSums] {
		if w *= sum; w == 0 {
			return 0, 0
		}
	}
	if nd.free {
		f = 1
		for _, fsum := range it[nd.offFSums:nd.offLists] {
			f *= fsum
		}
	}
	return w, f
}

// allZero reports whether every counter is zero.
//
//dyncq:hot
func allZero(counts []uint64) bool {
	for _, cnt := range counts {
		if cnt != 0 {
			return false
		}
	}
	return true
}

// Count returns |ϕ(D)| in constant time: the product over components of
// C̃_start (free components) and of the 0/1 emptiness indicator (Boolean
// components). For a Boolean query the count is 1 (the empty tuple) or 0.
//
// Counts are exact as long as |ϕ(D)| and every intermediate C value fit
// in uint64; with n = |adom(D)| they are bounded by n^k for a k-ary
// query, so e.g. any query with n·…·n ≤ 2^64 is safe. This mirrors the
// paper's O(log n)-word RAM arithmetic assumption.
func (e *Engine) Count() uint64 {
	total := uint64(1)
	for _, c := range e.comps {
		cStart, cfStart := c.totals()
		if c.hasFree {
			total *= cfStart
		} else if cStart == 0 {
			return 0
		}
		if total == 0 {
			return 0
		}
	}
	return total
}

// Answer reports whether ϕ(D) is nonempty, in constant time (the shard
// count is a configuration constant, not data).
func (e *Engine) Answer() bool {
	for _, c := range e.comps {
		if cStart, _ := c.totals(); cStart == 0 {
			return false
		}
	}
	return true
}

// probe locates one free node's item for Contains: src[j] is the head
// position holding the value of the node's j-th path variable (every
// ancestor of a free node is free, so each has one).
type probe struct {
	comp int
	node int32
	src  []int32
}

// compileProbes derives the Contains plan from the head (its variables
// are distinct: Validate rejects a repeated one).
func (e *Engine) compileProbes() {
	pos := make(map[string]int32, len(e.query.Head))
	for i, h := range e.query.Head {
		pos[h] = int32(i)
	}
	for ci, c := range e.comps {
		for _, ni := range c.freeNodes {
			p := probe{comp: ci, node: ni, src: make([]int32, c.nodes[ni].depth+1)}
			for at := ni; at >= 0; at = c.nodes[at].parent {
				p.src[c.nodes[at].depth] = pos[c.nodes[at].name]
			}
			e.probes = append(e.probes, p)
		}
	}
}

// Contains reports whether the tuple is in ϕ(D) — the constant-time test
// of Theorem 3.2, without enumerating anything: the tuple names one item
// per free node (its path values, read off the head positions), and it is
// a result tuple iff every one of them is fit and every Boolean
// component's gate is open. One index lookup per free node, O(k·depth)
// in all. A tuple of the wrong arity is not in the result.
func (e *Engine) Contains(tuple []Value) bool {
	if len(tuple) != len(e.heads) {
		return false
	}
	for _, c := range e.comps {
		if cStart, _ := c.totals(); !c.hasFree && cStart == 0 {
			return false
		}
	}
	var buf [8]Value // readers share the engine, so no engine scratch here
	for _, p := range e.probes {
		key := buf[:0]
		for _, s := range p.src {
			key = append(key, tuple[s])
		}
		sh := &e.comps[p.comp].shards[e.shardOf(key[0])]
		r, ok := sh.index[p.node].Get(key)
		if !ok || !sh.arenas[p.node].rec(r).inList() {
			return false
		}
	}
	return true
}

// CheckInvariants verifies the data-structure invariants (a)–(d) of
// Section 6.4 by local recomputation — weights match Lemmas 6.3/6.4, list
// sums match member weights, membership matches fitness — and the arena
// bookkeeping a record needs to be found again: own constant, parent ref,
// mutual list links, and every record either indexed or on the free chain.
// It costs time linear in the structure.
func (e *Engine) CheckInvariants() error {
	for ci, c := range e.comps {
		for si := range c.shards {
			sh := &c.shards[si]
			for ni := range c.nodes {
				if err := e.checkNode(c, si, ni); err != nil {
					return fmt.Errorf("comp %d shard %d node %s %w", ci, si, c.nodes[ni].name, err)
				}
			}
			sum, fsum, err := checkList(&c.nodes[0], &sh.arenas[0], sh.start, 0)
			if err != nil {
				return fmt.Errorf("comp %d shard %d start list: %w", ci, si, err)
			}
			if sum != sh.cStart {
				return fmt.Errorf("comp %d shard %d: cStart %d, actual %d", ci, si, sh.cStart, sum)
			}
			if c.hasFree && fsum != sh.cfStart {
				return fmt.Errorf("comp %d shard %d: cfStart %d, actual %d", ci, si, sh.cfStart, fsum)
			}
		}
	}
	return nil
}

// checkNode checks every item of one node in one shard, and that the
// node's arena holds nothing else.
func (e *Engine) checkNode(c *comp, si, ni int) (err error) {
	sh, nd := &c.shards[si], &c.nodes[ni]
	ar := &sh.arenas[ni]
	live := make([]bool, uint64(ar.n)+1) // by ref: named by the index
	sh.index[ni].Range(func(key []Value, r ref) bool {
		if r == 0 || r > ref(ar.n) || live[r] {
			err = fmt.Errorf("item %v: ref %d is nil, never handed out or indexed twice", key, r)
			return false
		}
		live[r] = true
		it := ar.rec(r)
		// Shard assignment: every item hashes here by root value.
		if got := e.shardOf(key[0]); got != uint64(si) {
			err = fmt.Errorf("item %v: hashes to shard %d", key, got)
		} else if own := Value(it[nd.offOwn]); own != key[nd.depth] {
			err = fmt.Errorf("item %v: record holds own constant %d", key, own)
		} else if w, f := nd.weights(it); w != it[recWeight] || nd.free && f != it[recFWeight] {
			err = fmt.Errorf("item %v: weights %v, recomputed %d, %d", key, it[recWeight:nd.offOwn], w, f)
		} else if (w > 0) != it.inList() {
			err = fmt.Errorf("item %v: fit=%v inList=%v", key, w > 0, it.inList())
		} else if allZero(it[nd.offCounts:nd.offSums]) {
			err = fmt.Errorf("item %v: present with all-zero counts", key)
		} else if nd.parent >= 0 {
			if p, _ := sh.index[nd.parent].Get(key[:nd.depth]); p == 0 || p != it.parent() {
				err = fmt.Errorf("item %v: parent ref %d, the index has %d", key, it.parent(), p)
			}
		}
		// Child lists: members, links and sums.
		for sl := 0; sl < len(nd.children) && err == nil; sl++ {
			u := &c.nodes[nd.children[sl]]
			var sum, fsum uint64
			if sum, fsum, err = checkList(u, &sh.arenas[nd.children[sl]], it[u.upList], r); err != nil {
				err = fmt.Errorf("item %v %s-list: %w", key, u.name, err)
			} else if sum != it[u.upSum] || nd.free && u.free && fsum != it[u.upFSum] {
				err = fmt.Errorf("item %v child %s: sums %d, %d do not match the record", key, u.name, sum, fsum)
			}
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	// Every record handed out is either indexed or on the free chain.
	free := 0
	for r := ar.free; r != 0; r = ar.rec(r).next() {
		if free++; r > ref(ar.n) || live[r] || free > int(ar.n) {
			return fmt.Errorf("free chain: ref %d is indexed, never handed out or on a cycle", r)
		}
	}
	if n := sh.index[ni].Len(); n+free != int(ar.n) {
		return fmt.Errorf("arena: %d live + %d free records of %d handed out", n, free, ar.n)
	}
	return nil
}

// checkList walks the fit list of node nd packed in the word list and
// owned by the item owner (0 for a start list): every member is marked
// inList and names the owner as its parent, prev and next are mutual, and
// the tail half is the last member. It returns Σ C^i and Σ C̃^i.
func checkList(nd *cnode, ar *arena, list uint64, owner ref) (sum, fsum uint64, err error) {
	var prev ref
	steps := uint32(0)
	for r := lo(list); r != 0; steps++ {
		if r > ref(ar.n) || steps == ar.n {
			return 0, 0, fmt.Errorf("ref %d was never handed out or the list is a cycle", r)
		}
		it := ar.rec(r)
		if !it.inList() || it.parent() != owner || it.prev() != prev {
			return 0, 0, fmt.Errorf("member %d: inList=%v parent=%d (owner %d) prev=%d (came from %d)",
				r, it.inList(), it.parent(), owner, it.prev(), prev)
		}
		sum += it[recWeight]
		if nd.free {
			fsum += it[recFWeight]
		}
		prev, r = r, it.next()
	}
	if hi(list) != prev {
		return 0, 0, fmt.Errorf("tail is %d, the last member %d", hi(list), prev)
	}
	return sum, fsum, nil
}
