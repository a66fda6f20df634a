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
// item [v, α, a], stored in a per-node hash map keyed by the path values
// (the "arrays A_v" of the paper, realised as tuplekey maps per the
// paper's footnote 2). Each item carries
//
//   - C^i_ψ for every ψ ∈ atoms(v) (field counts): the number of
//     expansions of the item's assignment to vars(ψ) satisfied by the
//     database — an item is present iff some C^i_ψ > 0 (invariant (a) of
//     Section 6.4);
//   - C^i (field weight), maintained by Lemma 6.3 as the product of the
//     rep-atom counts and the child list sums — an item is "fit" iff
//     C^i > 0, and the doubly linked child lists L^i_u contain exactly the
//     fit items;
//   - C̃^i (field fweight) for free nodes, maintained by Lemma 6.4, whose
//     root-list sum C̃_start is |ϕ(D)| for a connected query.
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

// item is one entry [v, α, a] of the data structure (Section 6.2). Its
// key holds the constants assigned along path[v] (α followed by a), so
// len(key) == depth(v)+1.
type item struct {
	key    []Value
	parent *item

	// prev/next link the item into the doubly linked fit list of its
	// parent (L^{parent}_v) or the component's start list if v is the
	// root; inList tells whether the item is currently linked. Lists are
	// appended at the tail, so they run in "became fit" order; with a
	// sorted initial load this reproduces the paper's Figure 3 layout and
	// Table 1 enumeration order exactly.
	prev, next *item
	inList     bool

	// counts[s] is C^i_ψ for the tracked atom with slot s at this node.
	counts []uint64
	// weight is C^i; fweight is C̃^i (free nodes only).
	weight  uint64
	fweight uint64
	// childSum[c] is C^i_u = Σ_{i'∈L^i_u} C^{i'} for the c-th child u;
	// fchildSum[c] is the C̃ analogue for the c-th free child.
	childSum  []uint64
	fchildSum []uint64
	// childHead[c]/childTail[c] point to the first and last element of
	// L^i_u.
	childHead []*item
	childTail []*item
}

// cnode is a compiled q-tree node.
type cnode struct {
	name           string
	free           bool
	parent         int32 // -1 for the root
	depth          int32
	slotInParent   int32
	freeOrd        int32   // index among the free nodes in document order, -1 if quantified
	children       []int32 // free children first (document order)
	freeChildCount int32
	repSlots       []int32 // count slots of atoms represented at this node
	numTracked     int32   // number of atoms ψ with v ∈ vars(ψ)
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
	// pointer and every fit list stays inside one shard. With a single
	// shard (the default) this is exactly the paper's layout; with more,
	// updates whose root values hash to different shards touch disjoint
	// state and can be applied by parallel workers (ApplyDelta).
	shards []compShard
}

// compShard is one shard of a component's dynamic state: the per-node
// item indexes (the "arrays A_v", restricted to root values hashing
// here), this shard's slice of the start list, its contribution to
// C_start/C̃_start (summed across shards by Count/Answer), and the slab
// its items are allocated from (see slab.go).
type compShard struct {
	index     []*tuplekey.Table[*item] // per node: the "array A_v", keyed at stride depth+1
	startHead *item
	startTail *item
	cStart    uint64 // Σ C^i over fit root items of this shard
	cfStart   uint64 // Σ C̃^i over fit root items (root free only)
	slab      itemSlab
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
// index), and its depth (position in an item key).
type headLoc struct {
	comp    int
	freeOrd int32
	depth   int32
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

	// scratch buffers for the update path (avoid per-update allocation).
	scratchVals  []Value
	scratchItems []*item
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
	e.scratchVals = make([]Value, maxDepth)
	e.scratchItems = make([]*item, maxDepth)
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
				return headLoc{comp: ci, freeOrd: c.nodes[ni].freeOrd, depth: c.nodes[ni].depth}, true
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
	for si := range c.shards {
		c.shards[si].index = make([]*tuplekey.Table[*item], n)
		for i := range c.nodes {
			c.shards[si].index[i] = tuplekey.NewTable[*item](int(c.nodes[i].depth) + 1)
		}
		c.shards[si].slab.initFree(n)
	}
	for i := range c.nodes {
		for sl, ch := range c.nodes[i].children {
			c.nodes[ch].slotInParent = int32(sl)
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
			for _, ref := range e.rels[u.Rel] {
				c := e.comps[ref.comp]
				e.updateAtomScratch(c, &c.atoms[ref.atom], u.Tuple, insert, e.scratchVals, e.scratchItems, acc)
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
		refs := e.rels[rel]
		if len(refs) == 0 {
			continue
		}
		r.Each(func(t []Value) bool {
			for _, ref := range refs {
				e.countAtom(ref, t)
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
// engine representing the empty database; the version advances. Item
// slabs are freed wholesale: the GC retires a shard's items as whole
// chunks instead of tracing them individually.
func (e *Engine) Clear() {
	e.version++
	for _, c := range e.comps {
		for si := range c.shards {
			sh := &c.shards[si]
			for ni := range sh.index {
				sh.index[ni] = tuplekey.NewTable[*item](int(c.nodes[ni].depth) + 1)
			}
			sh.startHead, sh.startTail = nil, nil
			sh.cStart, sh.cfStart = 0, 0
			sh.slab.reset(len(c.nodes))
		}
	}
}

// updateAtomScratch is the per-atom part of the Section 6.4 update
// procedure: if the tuple matches the atom's repeated-variable pattern,
// walk the atom's root path top-down adjusting C^i_ψ (creating items on
// insert), then bottom-up recompute C^i and C̃^i by Lemmas 6.3/6.4, fix
// fit-list membership, propagate the sums, and drop items whose counters
// all reached zero.
// Every touched map, item and list belongs to the shard of the root value
// vals[0], so calls whose root values hash to different shards are
// mutually independent — the property runDeltaParallel exploits. The
// caller supplies the scratch buffers (parallel workers have their own)
// and, when the step's result delta is wanted, the accumulator it is
// emitted into (nil otherwise; the rule is in delta.go).
//
//dyncq:hot
func (e *Engine) updateAtomScratch(c *comp, a *catom, tuple []Value, insert bool, scratchVals []Value, scratchItems []*item, acc *deltaAcc) {
	for _, eq := range a.eqChecks {
		if tuple[eq[0]] != tuple[eq[1]] {
			return // tuple does not match the atom's variable pattern
		}
	}
	d := len(a.pathNodes)
	vals := scratchVals[:d]
	items := scratchItems[:d]
	for j := 0; j < d; j++ {
		vals[j] = tuple[a.extract[j]]
	}
	sh := &c.shards[e.shardOf(vals[0])]
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
		var it *item
		if insert {
			// One probe finds the item or claims its slot.
			slot, existed := sh.index[nodeIdx].Ref(vals[:j+1])
			if !existed {
				var parent *item
				if j > 0 {
					parent = items[j-1]
				}
				*slot = sh.slab.alloc(&c.nodes[nodeIdx], nodeIdx, vals[:j+1], parent)
			}
			it = *slot
			it.counts[a.slotAtDepth[j]]++
		} else {
			var ok bool
			if it, ok = sh.index[nodeIdx].Get(vals[:j+1]); !ok {
				panic(fmt.Sprintf("core: missing item for %s at node %s during delete (corrupted structure)",
					a.rel, c.nodes[nodeIdx].name))
			}
			it.counts[a.slotAtDepth[j]]--
		}
		items[j] = it
	}

	// Bottom-up: recompute weights, maintain lists and sums.
	for j := d - 1; j >= 0; j-- {
		nodeIdx := a.pathNodes[j]
		nd := &c.nodes[nodeIdx]
		it := items[j]
		oldW, oldF := it.weight, it.fweight

		// Lemma 6.3: C^i = Π_{ψ∈rep(v)} C^i_ψ · Π_{u∈N(v)} C^i_u
		// (rep-atom counts are 0/1 under set semantics).
		w := uint64(1)
		for _, s := range nd.repSlots {
			if it.counts[s] == 0 {
				w = 0
				break
			}
		}
		if w != 0 {
			for ci := range nd.children {
				w *= it.childSum[ci]
				if w == 0 {
					break
				}
			}
		}
		// Lemma 6.4: C̃^i = 0 if C^i = 0, else Π over free children of C̃^i_u.
		var f uint64
		if nd.free {
			if w != 0 {
				f = 1
				for ci := int32(0); ci < nd.freeChildCount; ci++ {
					f *= it.fchildSum[ci]
				}
			}
		}
		it.weight, it.fweight = w, f

		if j == 0 {
			sh.cStart = sh.cStart - oldW + w
			if nd.free {
				sh.cfStart = sh.cfStart - oldF + f
			}
		} else {
			p := items[j-1]
			sl := nd.slotInParent
			p.childSum[sl] = p.childSum[sl] - oldW + w
			if nd.free {
				p.fchildSum[sl] = p.fchildSum[sl] - oldF + f
			}
		}

		// Fit-list membership: L lists contain exactly the fit items.
		if w > 0 && !it.inList {
			link(sh, nd, it)
			if j == last {
				grew = true
			}
		} else if w == 0 && it.inList {
			if acc != nil && j == last && allFit(items[:j]) {
				e.emitStep(acc, c, a, items, -1)
			}
			unlink(sh, nd, it)
		}

		// Invariant (a): drop the item once no atom supports it.
		if !insert {
			all0 := true
			for _, cnt := range it.counts {
				if cnt != 0 {
					all0 = false
					break
				}
			}
			if all0 {
				sh.index[nodeIdx].Delete(it.key)
				sh.slab.recycle(nodeIdx, it)
			}
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
			e.emitStep(acc, c, a, items, sign)
		}
	} else if grew && allFit(items[:a.free]) {
		e.emitStep(acc, c, a, items, 1)
	}
}

// listOf returns the head and tail pointers of the list it belongs to:
// the parent's child list for nd, or the shard's start list for root
// items.
func listOf(sh *compShard, nd *cnode, it *item) (head, tail **item) {
	if it.parent == nil {
		return &sh.startHead, &sh.startTail
	}
	return &it.parent.childHead[nd.slotInParent], &it.parent.childTail[nd.slotInParent]
}

// link appends it to the tail of its list.
//
//dyncq:hot
func link(sh *compShard, nd *cnode, it *item) {
	head, tail := listOf(sh, nd, it)
	it.next = nil
	it.prev = *tail
	if *tail != nil {
		(*tail).next = it
	} else {
		*head = it
	}
	*tail = it
	it.inList = true
}

// unlink removes it from its list.
//
//dyncq:hot
func unlink(sh *compShard, nd *cnode, it *item) {
	head, tail := listOf(sh, nd, it)
	if it.prev != nil {
		it.prev.next = it.next
	} else {
		*head = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	} else {
		*tail = it.prev
	}
	it.prev, it.next = nil, nil
	it.inList = false
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
		it, ok := e.comps[p.comp].shards[e.shardOf(key[0])].index[p.node].Get(key)
		if !ok || !it.inList {
			return false
		}
	}
	return true
}

// checkInvariants verifies the data-structure invariants (a)–(d) of
// Section 6.4 by full recomputation. It is exported to the package tests
// through export_test.go and costs time linear in the structure.
func (e *Engine) checkInvariants() error {
	for ci, c := range e.comps {
		// Recompute weights bottom-up per item via direct definition is
		// involved; instead check local consistency: list sums match member
		// weights, weights match Lemma 6.3, membership matches fitness.
		var errOut error
		for si := range c.shards {
			sh := &c.shards[si]
			for ni := range c.nodes {
				nd := &c.nodes[ni]
				sh.index[ni].Range(func(key []Value, it *item) bool {
					// Shard assignment: every item hashes here by root value.
					if got := e.shardOf(key[0]); got != uint64(si) {
						errOut = fmt.Errorf("comp %d node %s item %v: stored in shard %d, hashes to %d", ci, nd.name, key, si, got)
						return false
					}
					// weight per Lemma 6.3
					w := uint64(1)
					for _, s := range nd.repSlots {
						if it.counts[s] == 0 {
							w = 0
						}
					}
					if w != 0 {
						for sl := range nd.children {
							w *= it.childSum[sl]
						}
					}
					if w != it.weight {
						errOut = fmt.Errorf("comp %d node %s item %v: weight %d, recomputed %d", ci, nd.name, key, it.weight, w)
						return false
					}
					if (it.weight > 0) != it.inList {
						errOut = fmt.Errorf("comp %d node %s item %v: fit=%v inList=%v", ci, nd.name, key, it.weight > 0, it.inList)
						return false
					}
					all0 := true
					for _, cnt := range it.counts {
						if cnt != 0 {
							all0 = false
						}
					}
					if all0 {
						errOut = fmt.Errorf("comp %d node %s item %v: present with all-zero counts", ci, nd.name, key)
						return false
					}
					// child list sums
					for sl, chIdx := range nd.children {
						var sum, fsum uint64
						for ch := it.childHead[sl]; ch != nil; ch = ch.next {
							sum += ch.weight
							fsum += ch.fweight
						}
						if sum != it.childSum[sl] {
							errOut = fmt.Errorf("comp %d node %s item %v child %s: childSum %d, actual %d",
								ci, nd.name, key, c.nodes[chIdx].name, it.childSum[sl], sum)
							return false
						}
						if int32(sl) < nd.freeChildCount && nd.free && fsum != it.fchildSum[sl] {
							errOut = fmt.Errorf("comp %d node %s item %v child %s: fchildSum %d, actual %d",
								ci, nd.name, key, c.nodes[chIdx].name, it.fchildSum[sl], fsum)
							return false
						}
					}
					return true
				})
				if errOut != nil {
					return errOut
				}
			}
			var sum, fsum uint64
			for it := sh.startHead; it != nil; it = it.next {
				sum += it.weight
				fsum += it.fweight
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
