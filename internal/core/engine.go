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
// (slab.go has the layout), found through a per-node hash table on the
// path values (the "arrays A_v" of the paper, realised per its footnote 2
// as an itemIndex, index.go, whose slots hold only a ref and hash bits:
// the record's own constant and parent ref are its key) and named,
// wherever the paper holds a pointer, by its 32-bit ref. Each item carries
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
// constant-time test (Contains: one index probe per free node, no
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
// store once and hands the engine the same net delta (ApplyDelta), whose
// commands carry the store's relation ids. The preprocessing phase
// (Rebuild) is the same update procedure run once per tuple of a store
// the owner passes in — the one way the structure is ever built — and
// fixes the engine's id table.
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
// plus the dynamic state.
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

	// The dynamic state: the per-node item indexes (the "arrays A_v") and
	// the arenas their items live in (slab.go), the start list, and
	// C_start/C̃_start.
	index   []itemIndex // per node: the "array A_v"
	arenas  []arena     // per node: the items the index refers to
	start   uint64      // the start list: head | tail<<32, refs into arenas[0]
	cStart  uint64      // Σ C^i over fit root items
	cfStart uint64      // Σ C̃^i over fit root items (root free only)
}

// reset empties the dynamic state: an empty index and an empty arena per
// node, no start list. Whatever it held — chunks, slot arrays — is
// dropped.
func (c *comp) reset() {
	c.index, c.arenas = make([]itemIndex, len(c.nodes)), make([]arena, len(c.nodes))
	c.start, c.cStart, c.cfStart = 0, 0, 0
	for i := range c.nodes {
		c.arenas[i] = arena{tuplekey.NewArena[uint64](int(c.nodes[i].stride))}
	}
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
// Rebuild scans a store the owner hands it.
//
// A delta reaches the atoms through the engine's id table: byID maps the
// store's relation id (dyndb.IDOf) to the atoms over that relation, so a
// command costs one slice index, not a name lookup. Rebuild fills the
// table from the store it is given; store ids never change, so the table
// holds for every later delta and rebuild against that store, and the
// engine must only ever be fed deltas of the store it was last rebuilt
// against.
//
// An Engine is not safe for concurrent use — the workspace serialises
// writers around it; the read methods (Count, Answer, Contains,
// Enumerate) may share it among themselves.
type Engine struct {
	query   *cq.Query
	comps   []*comp
	rels    map[string][]atomRef // relation → atoms over it
	byID    [][]atomRef          // store relation id → atoms over it (Rebuild)
	heads   []headLoc
	freeIdx []int // component → index among free components, -1 if Boolean
	version uint64

	// probes drive Contains: one index probe per free node, parents
	// first.
	probes []probe

	// scratch serves the update path (no per-update allocation).
	scratch pathScratch
	// acc is the delta accumulator, built by the first ApplyDelta that
	// emits and reused afterwards.
	acc *deltaAcc
}

// New compiles the query into an engine representing the empty database.
// New fails with an error wrapping ErrNotQHierarchical if the query is not
// q-hierarchical, and with a validation error for malformed queries.
// Compilation is poly(ϕ): it never touches data.
func New(q *cq.Query) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	e := &Engine{
		query: q,
		rels:  make(map[string][]atomRef),
	}
	subs := q.Components()
	maxDepth := 0
	for ci, sub := range subs {
		tree, err := qtree.Build(sub)
		if err != nil {
			return nil, fmt.Errorf("core.New: %w", err)
		}
		c, err := compileComp(sub, tree)
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
	e.scratch = newPathScratch(maxDepth)
	return e, nil
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
func compileComp(sub *cq.Query, tree *qtree.Tree) (*comp, error) {
	n := len(tree.Nodes)
	c := &comp{
		nodes:     make([]cnode, n),
		freeCount: tree.FreeCount,
		hasFree:   tree.FreeCount > 0,
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
	c.reset()
	return c, nil
}

// Query returns the compiled query.
func (e *Engine) Query() *cq.Query { return e.query }

// ApplyDelta runs the Section 6.4 update procedures, poly(ϕ) time each,
// for a net delta the owner applied to its store: survivors must be
// coalesced, schema-validated commands each of which changed the
// database, as NetDelta returns them, carrying the relation ids of the
// store the engine was rebuilt against (a single update is a delta of
// one; commands on relations the query does not mention only invalidate
// outstanding iterators). The per-atom operations run in delta order,
// which reproduces the canonical enumeration order of a single-update
// replay. The version advances at
// most once per delta, so outstanding iterators are invalidated iff the
// structure may have moved.
//
// With emit set, ApplyDelta also returns what the delta did to ϕ(D): the
// tuples the result gained and lost, disjoint, each side in lexicographic
// order, freshly allocated. Their cost is proportional to their number
// (delta.go); without emit the call does no extra work and returns nil.
//
//dyncq:hot
func (e *Engine) ApplyDelta(survivors []dyndb.Update, emit bool) (added, removed [][]Value) {
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
	for _, u := range survivors {
		id := dyndb.IDOf(u)
		if id >= len(e.byID) {
			continue // a relation the query does not mention, declared after the last Rebuild
		}
		insert := u.Op == dyndb.OpInsert
		for _, ar := range e.byID[id] {
			c := e.comps[ar.comp]
			e.updateAtom(c, &c.atoms[ar.atom], u.Tuple, insert, acc)
		}
	}
	if !emit {
		return nil, nil
	}
	return e.netDelta(acc)
}

// Rebuild discards the structure and runs the preprocessing phase of
// Section 6.4 over the store's current contents the way the paper does:
// one insert update procedure (updateAtom) per stored tuple and matching
// atom, so the build is linear in |D| by the per-update bound alone.
// sortLists then puts every fit list in ascending order of its items' own
// constants — the order a sorted single-tuple replay produces, whatever
// order the store yields its tuples in — which on the paper's Example 6.1
// database reproduces the Figure 3 layout and the Table 1 enumeration
// order. The owner calls it after replacing the store's contents and when
// a query registers against a populated store, having checked the store's
// arities against the query; it cannot fail. The version advances.
//
// Rebuild also fixes the id table (see Engine): it asks the store for
// the id of every relation the query mentions (dyndb.RelationID), which
// assigns the ids the store does not have yet.
func (e *Engine) Rebuild(store *dyndb.Database) {
	e.Clear()
	clear(e.byID)
	for rel, atoms := range e.rels { //dyncq:allow determinism each relation fills its own id slot, any visit order builds the same table
		id := dyndb.RelationID(store, rel)
		for id >= len(e.byID) {
			e.byID = append(e.byID, nil)
		}
		e.byID[id] = atoms
	}
	for _, rel := range store.Relations() {
		atoms := e.rels[rel]
		if len(atoms) == 0 {
			continue
		}
		store.Relation(rel).Each(func(t []Value) bool {
			for _, ar := range atoms {
				c := e.comps[ar.comp]
				e.updateAtom(c, &c.atoms[ar.atom], t, true, nil)
			}
			return true
		})
	}
	var scratch []listEntry
	for _, c := range e.comps {
		scratch = sortLists(c, scratch)
	}
}

// Clear discards the structure (items, lists, counters), leaving the
// engine representing the empty database; the version advances. Every
// arena drops its chunks and every index its slot arrays.
func (e *Engine) Clear() {
	e.version++
	for _, c := range e.comps {
		c.reset()
	}
}

// pathScratch is the writer's buffers for an atom's root path: per depth
// the item's ref (what links name), its resolved record (what is read and
// written) and its index slot (what a delete frees).
type pathScratch struct {
	items []ref
	recs  []record
	slots []uint32
}

func newPathScratch(depth int) pathScratch {
	return pathScratch{make([]ref, depth), make([]record, depth), make([]uint32, depth)}
}

// updateAtom is the per-atom part of the Section 6.4 update procedure: if
// the tuple matches the atom's repeated-variable pattern, walk the atom's
// root path top-down adjusting C^i_ψ (creating items on insert), then
// bottom-up recompute C^i and C̃^i by Lemmas 6.3/6.4, fix fit-list
// membership, propagate the sums, and drop items whose counters all
// reached zero. When the step's result delta is wanted the caller passes
// the accumulator it is emitted into (nil otherwise; the rule is in
// delta.go).
//
//dyncq:hot
func (e *Engine) updateAtom(c *comp, a *catom, tuple []Value, insert bool, acc *deltaAcc) {
	for _, eq := range a.eqChecks {
		if tuple[eq[0]] != tuple[eq[1]] {
			return // tuple does not match the atom's variable pattern
		}
	}
	d := len(a.pathNodes)
	items, recs, slots := e.scratch.items[:d], e.scratch.recs[:d], e.scratch.slots[:d]
	// last is the depth of the deepest free path item, the one whose
	// fitness flip changes the result; a Boolean component has none and
	// changes the result through its gate C_start > 0 instead.
	last := int(a.free) - 1
	grew, gateWas := false, false
	if acc != nil && last < 0 {
		gateWas = c.cStart > 0
	}

	// Top-down: fetch or create the items on the path, adjust C^i_ψ. Each
	// depth's path hash extends the one above by the depth's value, so
	// it comes from the tuple alone; one probe finds the item or the slot
	// an insert claims.
	h, parent := pathSeed, ref(0)
	for j := 0; j < d; j++ {
		nodeIdx := a.pathNodes[j]
		nd, ar, idx := &c.nodes[nodeIdx], &c.arenas[nodeIdx], &c.index[nodeIdx]
		own := tuple[a.extract[j]]
		h = tuplekey.Extend(h, own)
		if insert {
			idx.Reserve()
		}
		slot, r := idx.probe(h, ar, nd.offOwn, own, parent)
		if r == 0 {
			if !insert {
				panic(fmt.Sprintf("core: missing item for %s at node %s during delete (corrupted structure)",
					a.rel, nd.name))
			}
			r = ar.alloc(nd, own, parent)
			idx.Put(slot, h, uint32(r))
		}
		items[j], recs[j], slots[j], parent = r, ar.rec(r), slot, r
		count := nd.offCounts + a.slotAtDepth[j]
		if insert {
			recs[j][count]++
		} else {
			recs[j][count]--
		}
	}

	// Bottom-up: recompute weights, maintain lists and sums.
	for j := d - 1; j >= 0; j-- {
		nodeIdx := a.pathNodes[j]
		nd, ar := &c.nodes[nodeIdx], &c.arenas[nodeIdx]
		it := recs[j]
		oldW := it[recWeight]
		w, f := nd.weights(it)
		it[recWeight] = w
		var oldF uint64
		if nd.free {
			oldF, it[recFWeight] = it[recFWeight], f
		}

		list := &c.start
		if j == 0 {
			c.cStart += w - oldW
			c.cfStart += f - oldF
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
				e.emitStep(acc, c, a, recs, -1)
			}
			ar.unlink(list, it)
		}

		// Invariant (a): drop the item once no atom supports it.
		if !insert && allZero(it[nd.offCounts:nd.offSums]) {
			c.index[nodeIdx].Free(slots[j])
			ar.Free(uint32(items[j]))
		}
	}

	if acc == nil {
		return
	}
	if last < 0 {
		if gate := c.cStart > 0; gate != gateWas {
			sign := int8(-1)
			if gate {
				sign = 1
			}
			e.emitStep(acc, c, a, recs, sign)
		}
	} else if grew && allFit(recs[:a.free]) {
		e.emitStep(acc, c, a, recs, 1)
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
// in uint64; with n the number of distinct values in D they are bounded
// by n^k for a k-ary query, so e.g. any query with n·…·n ≤ 2^64 is safe.
// This mirrors the paper's O(log n)-word RAM arithmetic assumption.
func (e *Engine) Count() uint64 {
	total := uint64(1)
	for _, c := range e.comps {
		if c.hasFree {
			total *= c.cfStart
		} else if c.cStart == 0 {
			return 0
		}
		if total == 0 {
			return 0
		}
	}
	return total
}

// Answer reports whether ϕ(D) is nonempty, in constant time.
func (e *Engine) Answer() bool {
	for _, c := range e.comps {
		if c.cStart == 0 {
			return false
		}
	}
	return true
}

// probe locates one free node's item for Contains: pos is the head
// position holding the node's own value, up the index in Engine.probes of
// its parent's probe (-1 for a root; every ancestor of a free node is
// free, so each has a probe, and it comes first).
type probe struct {
	comp int
	node int32
	pos  int32
	up   int
}

// compileProbes derives the Contains plan from the head (its variables
// are distinct: Validate rejects a repeated one).
func (e *Engine) compileProbes() {
	pos := make(map[string]int32, len(e.query.Head))
	for i, h := range e.query.Head {
		pos[h] = int32(i)
	}
	for ci, c := range e.comps {
		base := len(e.probes)
		for _, ni := range c.freeNodes {
			nd := &c.nodes[ni]
			p := probe{comp: ci, node: ni, pos: pos[nd.name], up: -1}
			if nd.parent >= 0 {
				p.up = base + int(c.nodes[nd.parent].freeOrd)
			}
			e.probes = append(e.probes, p)
		}
	}
}

// Contains reports whether the tuple is in ϕ(D) — the constant-time test
// of Theorem 3.2, without enumerating anything: the tuple names one item
// per free node (its path values, read off the head positions), and it is
// a result tuple iff every one of them is fit and every Boolean
// component's gate is open. The free nodes are probed parents first, each
// probe extending its parent's path hash and naming its parent's ref: one
// index probe per free node, O(k) in all. A tuple of the wrong arity is
// not in the result.
func (e *Engine) Contains(tuple []Value) bool {
	if len(tuple) != len(e.heads) {
		return false
	}
	for _, c := range e.comps {
		if !c.hasFree && c.cStart == 0 {
			return false
		}
	}
	type found struct {
		h uint64
		r ref
	}
	var buf [8]found // readers share the engine, so no engine scratch here
	path := buf[:0]
	for _, p := range e.probes {
		c := e.comps[p.comp]
		nd, ar := &c.nodes[p.node], &c.arenas[p.node]
		up := found{h: pathSeed}
		if p.up >= 0 {
			up = path[p.up]
		}
		own := tuple[p.pos]
		h := tuplekey.Extend(up.h, own)
		_, r := c.index[p.node].probe(h, ar, nd.offOwn, own, up.r)
		if r == 0 || !ar.rec(r).inList() {
			return false
		}
		path = append(path, found{h, r})
	}
	return true
}

// CheckInvariants verifies the data-structure invariants (a)–(d) of
// Section 6.4 by local recomputation — weights match Lemmas 6.3/6.4, list
// sums match member weights, membership matches fitness — and the
// bookkeeping a record needs to be found again: every indexed item's path,
// re-derived from its own constant and its parent chain, hashes to the
// bits its slot keeps and probes to that very slot; list links are
// mutual; and every record is either indexed or on the free chain. It
// costs time linear in the structure times its depth.
func (e *Engine) CheckInvariants() error {
	for ci, c := range e.comps {
		live, err := liveItems(c)
		if err != nil {
			return fmt.Errorf("comp %d %w", ci, err)
		}
		for ni := range c.nodes {
			if err := checkNode(c, int32(ni), live); err != nil {
				return fmt.Errorf("comp %d node %s %w", ci, c.nodes[ni].name, err)
			}
		}
		sum, fsum, err := checkList(&c.nodes[0], &c.arenas[0], c.start, 0)
		if err != nil {
			return fmt.Errorf("comp %d start list: %w", ci, err)
		}
		if sum != c.cStart {
			return fmt.Errorf("comp %d: cStart %d, actual %d", ci, c.cStart, sum)
		}
		if c.hasFree && fsum != c.cfStart {
			return fmt.Errorf("comp %d: cfStart %d, actual %d", ci, c.cfStart, fsum)
		}
	}
	return nil
}

// liveItems returns, per node and by ref, which records the node's index
// names, checking that each slot names a record handed out, no other slot
// names the same one, no empty slot lies between an item's home slot and
// its slot, the index's count matches its slots, and every other record
// handed out is on the arena's free chain (tuplekey.Arena.CheckFree).
func liveItems(c *comp) ([][]bool, error) {
	live := make([][]bool, len(c.nodes))
	for ni := range c.nodes {
		idx, n := &c.index[ni], c.arenas[ni].N()
		live[ni] = make([]bool, uint64(n)+1)
		full := 0
		for i, w := range idx.Slots {
			if w == 0 {
				continue
			}
			r := idx.at(i)
			if full++; r == 0 || r > ref(n) || live[ni][r] {
				return nil, fmt.Errorf("node %s slot %d: ref %d is nil, never handed out or indexed twice", c.nodes[ni].name, i, r)
			}
			live[ni][r] = true
			if gap := idx.Gap(i); gap >= 0 {
				return nil, fmt.Errorf("node %s slot %d: empty slot %d lies between the item's home and its slot", c.nodes[ni].name, i, gap)
			}
		}
		if full != idx.Len() {
			return nil, fmt.Errorf("node %s: %d full slots, the index counts %d", c.nodes[ni].name, full, idx.Len())
		}
		if err := c.arenas[ni].CheckFree(live[ni], full); err != nil {
			return nil, fmt.Errorf("node %s %w", c.nodes[ni].name, err)
		}
	}
	return live, nil
}

// pathOf re-derives the path α·a of item r of node ni into path (one
// value per depth) from the records alone: each one's own constant, and
// its parent ref, which must name an indexed item of the parent node (nil
// for a root item).
func pathOf(c *comp, ni int32, r ref, live [][]bool, path []Value) error {
	for {
		nd := &c.nodes[ni]
		it := c.arenas[ni].rec(r)
		path[nd.depth] = Value(it[nd.offOwn])
		p := it.parent()
		if nd.parent < 0 {
			if p != 0 {
				return fmt.Errorf("root item %d names parent ref %d", r, p)
			}
			return nil
		}
		if int(p) >= len(live[nd.parent]) || !live[nd.parent][p] {
			return fmt.Errorf("item %d of node %s: parent ref %d names no indexed item", r, nd.name, p)
		}
		ni, r = nd.parent, p
	}
}

// checkNode checks every item of one node.
func checkNode(c *comp, ni int32, live [][]bool) error {
	nd, ar, idx := &c.nodes[ni], &c.arenas[ni], &c.index[ni]
	key := make([]Value, nd.depth+1)
	for i := range idx.Slots {
		r := idx.at(i)
		if r == 0 {
			continue
		}
		if err := pathOf(c, ni, r, live, key); err != nil {
			return err
		}
		h := pathSeed
		for _, v := range key {
			h = tuplekey.Extend(h, v)
		}
		it := ar.rec(r)
		if bits := idx.Slots[i] >> 32; bits != h&hashBits {
			return fmt.Errorf("item %v: slot %d holds hash bits %#x, the path hashes to %#x", key, i, bits, h&hashBits)
		}
		if slot, found := idx.probe(h, ar, nd.offOwn, key[nd.depth], it.parent()); found != r || slot != uint32(i) {
			return fmt.Errorf("item %v: a probe finds ref %d in slot %d, not ref %d in slot %d", key, found, slot, r, i)
		}
		if w, f := nd.weights(it); w != it[recWeight] || nd.free && f != it[recFWeight] {
			return fmt.Errorf("item %v: weights %v, recomputed %d, %d", key, it[recWeight:nd.offOwn], w, f)
		} else if (w > 0) != it.inList() {
			return fmt.Errorf("item %v: fit=%v inList=%v", key, w > 0, it.inList())
		} else if allZero(it[nd.offCounts:nd.offSums]) {
			return fmt.Errorf("item %v: present with all-zero counts", key)
		}
		// Child lists: members, links and sums.
		for _, ch := range nd.children {
			u := &c.nodes[ch]
			sum, fsum, err := checkList(u, &c.arenas[ch], it[u.upList], r)
			if err != nil {
				return fmt.Errorf("item %v %s-list: %w", key, u.name, err)
			}
			if sum != it[u.upSum] || nd.free && u.free && fsum != it[u.upFSum] {
				return fmt.Errorf("item %v child %s: sums %d, %d do not match the record", key, u.name, sum, fsum)
			}
		}
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
		if r > ref(ar.N()) || steps == ar.N() {
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
