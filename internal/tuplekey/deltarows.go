package tuplekey

// DeltaRows is the scratch a maintenance backend lends a commit's result
// delta from: the added and the removed tuples, each side row-major in one
// flat array, and the two header slices Lend hands out over them. A
// steady stream of commits reuses all four, so handing over a delta
// allocates nothing once warm. What Lend returns stays valid until the
// next Add, which is where the backend's next commit starts writing.
type DeltaRows struct {
	flat  [2][]int64   // per side, the rows added since the last Lend
	n     [2]int       // per side, the row count (the arity may be 0)
	heads [2][][]int64 // per side, the headers of the last Lend
}

// keepRows bounds, in rows per side, what a DeltaRows keeps after a Lend:
// commit-sized deltas reuse their arrays, while a bulk commit's are lent
// once and then left to the collector with the caller's last reference.
const keepRows = 1024

// Add appends a copy of row to the removed side if removed is set, else
// to the added side.
//
//dyncq:hot
func (d *DeltaRows) Add(removed bool, row []int64) {
	s := 0
	if removed {
		s = 1
	}
	d.flat[s] = append(d.flat[s], row...) //dyncq:allow hotalloc grows to the largest commit-sized delta once, reused after (keepRows)
	d.n[s]++
}

// Lend returns the rows added since the last Lend, of the given arity,
// as header slices over d's own arrays, in the order they were added; a
// side without rows is nil. Each header has its row's length as its
// capacity. The caller may read them, and reorder the header slices,
// until the next Add; d is empty again.
//
//dyncq:hot
func (d *DeltaRows) Lend(arity int) (added, removed [][]int64) {
	for s := range d.flat {
		flat, heads := d.flat[s], d.heads[s][:0]
		for i := 0; i < d.n[s]; i++ {
			heads = append(heads, flat[i*arity:(i+1)*arity:(i+1)*arity]) //dyncq:allow hotalloc grows to the largest commit-sized delta once, reused after (keepRows)
		}
		if d.n[s] > 0 {
			if s == 0 {
				added = heads
			} else {
				removed = heads
			}
		}
		if d.n[s] > keepRows {
			d.flat[s], d.heads[s] = nil, nil
		} else {
			d.flat[s], d.heads[s] = flat[:0], heads
		}
		d.n[s] = 0
	}
	return added, removed
}
