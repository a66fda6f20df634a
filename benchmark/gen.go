package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"

	"dyncq/internal/dyndb"
)

// The generator is the benchmark's own code on purpose: it shares
// nothing with internal/workload, so a change to the program cannot
// move the inputs it is measured on. Everything below is a pure
// function of (workload, seed, scale).

// rng is splitmix64: tiny, seedable, identical on every Go version.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks 0..n-1 with P(k) ∝ (k+1)^-s from a precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// column is one attribute of a generated relation.
type column struct {
	n    int     // values are drawn from [0, n)
	skew float64 // Zipf exponent of the draw; 0 draws uniformly
}

// relation describes how one relation is preloaded and updated.
type relation struct {
	name   string
	cols   []column
	size   int // tuples after preload; the stream keeps it steady (half its updates delete)
	weight int // share of the update stream; 0 keeps the relation static
	// cover, when set, builds a static unary relation from the relation
	// named coverOf instead of drawing it: it holds the coldest values
	// of coverOf's last column that together carry this share of
	// coverOf's preloaded tuples. That fixes the join's result size
	// (cover × |coverOf|) without touching the store's size.
	cover   float64
	coverOf string
}

type namedQuery struct{ name, text string }

// workload is one named load: its queries, data shape, batch size and
// which second-connection role runs beside the writer in the timed rounds.
type workload struct {
	name, why string
	queries   []namedQuery // queries[0] is the one the second connection reads or subscribes to
	rels      []relation
	batch     int  // updates per commit
	cycle     int  // forward batches generated; the writer plays them, then their inverse, and repeats
	subscribe bool // the second connection subscribes to queries[0] during the timed rounds
	poll      bool // the second connection alternates enumerate and count on queries[0] during the timed rounds
	ladder    int  // batches replayed by the traced ladder
}

const zipfS = 1.2 // hot-key skew of join columns (Kara–Nikolic–Olteanu–Zhang motivate it)

const (
	qStar = "Q(y) :- E(x,y), T(y)"
	qDeep = "Q(x,y,z) :- R(x,y,z), E(x,y), S(x)"
	qHard = "Q(x,y) :- S(x), E(x,y), T(y)"
	qFeed = "Q(x,y) :- E(x,y), T(y)"
)

// feed is the shared shape of the three workloads on `feed`: only E is
// updated, T is static and decides the result size.
func feed(name, why string, cover float64, cycle, ladder int, subscribe, poll bool) workload {
	return workload{
		name: name, why: why,
		queries: []namedQuery{{"feed", qFeed}},
		rels: []relation{
			// 30k tuples, not the issue's 100k: a 100k-tuple result outgrows the
			// 2 MB L2, and on the shared host subscribe-large then swung 1.9x
			// between identical runs, against 1.3x at this size.
			{name: "E", cols: []column{{n: 15000}, {n: 6000, skew: zipfS}}, size: 30000, weight: 1},
			{name: "T", cols: []column{{n: 6000}}, cover: cover, coverOf: "E"},
		},
		batch: 8, cycle: cycle, ladder: ladder, subscribe: subscribe, poll: poll,
	}
}

// workloads returns the five workloads at the given scale (1 is the
// benchmark's size; tests shrink it). Order is the reporting order.
func workloads(scale float64) []workload {
	ws := []workload{
		{
			name:    "ingest-core",
			why:     "write-only, q-hierarchical queries at scale: wire parse, dyndb and core do all the work; capture, snapshot, broker and ivm do none",
			queries: []namedQuery{{"star", qStar}, {"deep", qDeep}},
			rels: []relation{
				{name: "E", cols: []column{{n: 40000}, {n: 20000, skew: zipfS}}, size: 52000, weight: 40},
				{name: "R", cols: []column{{n: 40000}, {n: 20000, skew: zipfS}, {n: 1000}}, size: 40000, weight: 30},
				{name: "T", cols: []column{{n: 20000}}, size: 10000, weight: 15},
				{name: "S", cols: []column{{n: 40000}}, size: 18000, weight: 15},
			},
			batch: 64, cycle: 2048, ladder: 1024,
		},
		{
			name:    "ingest-ivm",
			why:     "write-only, the paper's non-q-hierarchical query on IVM: delta joins and the eval index set dominate; core does nothing",
			queries: []namedQuery{{"hard", qHard}},
			rels: []relation{
				// Uniform keys of degree 50: on IVM an S or T update costs a
				// delta join over the key's E tuples, so degree is the knob.
				// Skew would make cost and result size hang on whether one
				// hot key sits in S, i.e. on the seed.
				{name: "E", cols: []column{{n: 1200}, {n: 1200}}, size: 60000, weight: 60},
				{name: "S", cols: []column{{n: 1200}}, size: 600, weight: 20},
				{name: "T", cols: []column{{n: 1200}}, size: 600, weight: 20},
			},
			batch: 64, cycle: 1024, ladder: 256,
		},
		feed("subscribe-small", "big store, ~300-tuple result, 1 subscriber: session, broker, delta encode and two sockets dominate; bypass workload for result-size optimisations",
			0.01, 4096, 2048, true, false),
		feed("subscribe-large", "same store, ~30k-tuple result, 1 subscriber: the capture diff re-enumerates the result every commit; commit_p50_us ratio to subscribe-small is |Q(D)|-independence",
			1, 512, 96, true, false),
		feed("read-mix", "~3k-tuple result, closed-loop writer beside a closed-loop poller: pins and encode-once frames serve reads while every commit pays the snapshot advance",
			0.1, 2048, 512, false, true),
	}
	if scale == 1 {
		return ws
	}
	shrink := func(n, floor int) int {
		if n = int(float64(n) * scale); n < floor {
			n = floor
		}
		return n
	}
	for i := range ws {
		w := &ws[i]
		w.cycle, w.ladder = shrink(w.cycle, 8), shrink(w.ladder, 4)
		for j := range w.rels {
			r := &w.rels[j]
			r.size = shrink(r.size, 0)
			for k := range r.cols {
				r.cols[k].n = shrink(r.cols[k].n, 64)
			}
		}
	}
	return ws
}

func findWorkload(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stream is a workload's generated input: the preload, the forward half
// of the update cycle, and both pre-encoded for the wire.
type stream struct {
	w       workload
	preload []dyndb.Update   // inserts only
	fwd     [][]dyndb.Update // forward batches; no tuple is touched twice in a batch, so every batch nets to its length
	// Wire images: one `begin … commit` block per element.
	preloadWire [][]byte
	cycleWire   [][]byte // fwd[0..n) then the inverse of fwd[n-1..0]: after one cycle the store is back at its preloaded state
	fingerprint string   // FNV-1a over every generated byte
}

// batchAt returns the i-th batch of the endless cyclic stream.
func (s *stream) batchAt(i int) []dyndb.Update {
	n := len(s.fwd)
	if i %= 2 * n; i < n {
		return s.fwd[i]
	}
	return invert(s.fwd[2*n-1-i])
}

// invert undoes a batch: reverse order, inserts and deletes swapped.
func invert(b []dyndb.Update) []dyndb.Update {
	out := make([]dyndb.Update, len(b))
	for i, u := range b {
		if u.Op == dyndb.OpInsert {
			u.Op = dyndb.OpDelete
		} else {
			u.Op = dyndb.OpInsert
		}
		out[len(b)-1-i] = u
	}
	return out
}

// pack folds a tuple into one map key. Generated domains are below 2^21
// and arities at most 3.
func pack(t []dyndb.Value) uint64 {
	var k uint64
	for _, v := range t {
		k = k<<21 | uint64(v)
	}
	return k
}

// relState tracks a relation's present tuples so deletes are drawn
// uniformly from them and inserts never repeat one (well-formed stream).
type relState struct {
	spec   relation
	draw   []func(*rng) int
	tuples [][]dyndb.Value
	index  map[uint64]int
}

func (rs *relState) add(t []dyndb.Value) {
	rs.index[pack(t)] = len(rs.tuples)
	rs.tuples = append(rs.tuples, t)
}

func (rs *relState) remove(i int) {
	last := len(rs.tuples) - 1
	delete(rs.index, pack(rs.tuples[i]))
	if i != last {
		rs.tuples[i] = rs.tuples[last]
		rs.index[pack(rs.tuples[i])] = i
	}
	rs.tuples = rs.tuples[:last]
}

// drawAbsent draws a tuple not present and not in skip.
func (rs *relState) drawAbsent(r *rng, skip map[uint64]bool) ([]dyndb.Value, error) {
	for try := 0; try < 10000; try++ {
		t := make([]dyndb.Value, len(rs.draw))
		for c, d := range rs.draw {
			t[c] = dyndb.Value(d(r))
		}
		k := pack(t)
		if _, present := rs.index[k]; !present && !skip[k] {
			return t, nil
		}
	}
	return nil, fmt.Errorf("relation %s is saturated: no absent tuple found", rs.spec.name)
}

func generate(w workload, seed int64) (*stream, error) {
	r := &rng{s: uint64(seed)*0x2545f4914f6cdd1d + uint64(len(w.name))}
	s := &stream{w: w}
	states := make([]*relState, len(w.rels))
	byName := map[string]*relState{}
	zipfs := map[column]*zipf{}
	for i, spec := range w.rels {
		rs := &relState{spec: spec, index: map[uint64]int{}}
		for _, c := range spec.cols {
			if c.n >= 1<<21 {
				return nil, fmt.Errorf("relation %s: domain %d does not fit pack", spec.name, c.n)
			}
			n := c.n
			if c.skew == 0 {
				rs.draw = append(rs.draw, func(r *rng) int { return r.intn(n) })
				continue
			}
			z := zipfs[c]
			if z == nil {
				z = newZipf(c.n, c.skew)
				zipfs[c] = z
			}
			rs.draw = append(rs.draw, z.draw)
		}
		states[i], byName[spec.name] = rs, rs
	}

	// Preload: drawn relations first, then the covering ones built from them.
	for _, rs := range states {
		for rs.spec.cover == 0 && len(rs.tuples) < rs.spec.size {
			t, err := rs.drawAbsent(r, nil)
			if err != nil {
				return nil, err
			}
			rs.add(t)
			s.preload = append(s.preload, dyndb.Insert(rs.spec.name, t...))
		}
	}
	for _, rs := range states {
		if rs.spec.cover == 0 {
			continue
		}
		of := byName[rs.spec.coverOf]
		last := len(of.spec.cols) - 1
		per := make([]int, of.spec.cols[last].n)
		for _, t := range of.tuples {
			per[t[last]]++
		}
		want, got := int(rs.spec.cover*float64(len(of.tuples))), 0
		for v := len(per) - 1; v >= 0 && got < want; v-- {
			got += per[v]
			t := []dyndb.Value{dyndb.Value(v)}
			rs.add(t)
			s.preload = append(s.preload, dyndb.Insert(rs.spec.name, t...))
		}
	}

	// Forward half of the cycle: per update pick a relation by weight,
	// then delete a uniformly drawn present tuple or insert a drawn
	// absent one.
	total := 0
	for _, rs := range states {
		total += rs.spec.weight
	}
	for b := 0; b < w.cycle; b++ {
		batch := make([]dyndb.Update, 0, w.batch)
		touched := map[string]map[uint64]bool{}
		for len(batch) < w.batch {
			pick := r.intn(total)
			var rs *relState
			for _, c := range states {
				if pick < c.spec.weight {
					rs = c
					break
				}
				pick -= c.spec.weight
			}
			seen := touched[rs.spec.name]
			if seen == nil {
				seen = map[uint64]bool{}
				touched[rs.spec.name] = seen
			}
			// Delete with probability |present| / 2·size: a half at the
			// preloaded size, pulling back towards it otherwise, so small
			// relations do not random-walk away from their steady state.
			if r.float()*2*float64(rs.spec.size) < float64(len(rs.tuples)) {
				i := r.intn(len(rs.tuples))
				t := rs.tuples[i]
				if seen[pack(t)] {
					continue
				}
				seen[pack(t)] = true
				rs.remove(i)
				batch = append(batch, dyndb.Delete(rs.spec.name, t...))
				continue
			}
			t, err := rs.drawAbsent(r, seen)
			if err != nil {
				return nil, err
			}
			seen[pack(t)] = true
			rs.add(t)
			batch = append(batch, dyndb.Insert(rs.spec.name, t...))
		}
		s.fwd = append(s.fwd, batch)
	}

	// Wire images and fingerprint.
	h := fnv.New64a()
	for _, q := range w.queries {
		h.Write([]byte(q.name + "=" + q.text + "\n"))
	}
	const preloadChunk = 4096
	for lo := 0; lo < len(s.preload); lo += preloadChunk {
		hi := min(lo+preloadChunk, len(s.preload))
		s.preloadWire = append(s.preloadWire, encodeBatch(s.preload[lo:hi]))
	}
	for i := 0; i < 2*len(s.fwd); i++ {
		s.cycleWire = append(s.cycleWire, encodeBatch(s.batchAt(i)))
	}
	for _, blobs := range [][][]byte{s.preloadWire, s.cycleWire} {
		for _, b := range blobs {
			h.Write(b)
		}
	}
	s.fingerprint = fmt.Sprintf("%016x", h.Sum64())
	return s, nil
}

// encodeBatch renders one atomic batch exactly as it goes on the wire.
func encodeBatch(b []dyndb.Update) []byte {
	out := append(make([]byte, 0, 16+24*len(b)), "begin\n"...)
	for _, u := range b {
		out = appendUpdate(out, u)
		out = append(out, '\n')
	}
	return append(out, "commit\n"...)
}

// appendUpdate renders an update in the stream syntax (`+E(1,2)`).
func appendUpdate(out []byte, u dyndb.Update) []byte {
	if u.Op == dyndb.OpDelete {
		out = append(out, '-')
	} else {
		out = append(out, '+')
	}
	out = append(out, u.Rel...)
	out = append(out, '(')
	for i, v := range u.Tuple {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, int64(v), 10)
	}
	return append(out, ')')
}

// preloadDB builds the store every rung and the oracle start from.
func (s *stream) preloadDB() (*dyndb.Database, error) {
	db := dyndb.New()
	if err := db.ApplyAll(s.preload); err != nil {
		return nil, err
	}
	return db, nil
}
