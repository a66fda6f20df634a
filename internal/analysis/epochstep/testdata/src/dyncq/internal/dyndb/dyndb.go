// Positive/negative fixture for the inside-dyndb half of epochstep:
// functions mutating relation/adom state must advance d.epoch in the
// same body.
package dyndb

import "dyncq/internal/tuplekey"

type Value = int64

type Update struct {
	Rel   string
	Tuple []Value
}

type Database struct {
	rels     map[string]*tuplekey.Table[struct{}]
	adom     []map[Value]int
	adomSize int
	card     int
	muts     uint64
	epoch    uint64
}

func (d *Database) Epoch() uint64 { return d.epoch }

// Insert mirrors the real single-tuple mutator: one get-or-insert probe
// on the shard table plus counter writes, with the epoch advanced in the
// same body.
func (d *Database) Insert(rel string, tuple ...Value) (bool, error) {
	if _, present := d.rels[rel].Ref(tuple); present {
		return false, nil
	}
	d.card++
	d.muts++
	d.epoch++
	return true, nil
}

func (d *Database) Apply(u Update) (bool, error) {
	return d.Insert(u.Rel, u.Tuple...)
}

func (d *Database) ApplyNetDelta(updates []Update, workers int) error {
	for _, u := range updates {
		d.rels[u.Rel].Put(u.Tuple, struct{}{})
		d.card++
	}
	d.epoch += uint64(len(updates))
	return nil
}

func (d *Database) Clear() {
	d.rels = make(map[string]*tuplekey.Table[struct{}])
	d.adomSize = 0
	d.card = 0
	d.epoch++
}

func (d *Database) CopyFrom(src *Database) error {
	for name := range src.rels {
		if _, err := d.Insert(name); err != nil {
			return err
		}
	}
	return nil
}

func (d *Database) insertForgotten(rel string, tuple ...Value) {
	m := d.rels[rel]
	m.Put(tuple, struct{}{}) // want `insertForgotten mutates store state but never advances d\.epoch`
	d.card++                 // want `insertForgotten mutates store state but never advances d\.epoch`
}

func (d *Database) refForgotten(rel string, tuple ...Value) bool {
	_, present := d.rels[rel].Ref(tuple) // want `refForgotten mutates store state but never advances d\.epoch`
	return present
}

func (d *Database) adomThroughAlias(v Value) {
	a := d.adom[0]
	a[v]++ // want `adomThroughAlias mutates store state but never advances d\.epoch`
}

func (d *Database) adomThroughAliasStepped(v Value) {
	a := d.adom[0]
	a[v]++
	if a[v] == 1 {
		d.adomSize++
	}
	d.epoch++
}

func (d *Database) deleteForgotten(v Value) {
	a := d.adom[0]
	delete(a, v) // want `deleteForgotten mutates store state but never advances d\.epoch`
}

// declare writes the relation table without content changes; the allow
// documents why no epoch advance is needed.
func (d *Database) declare(name string) {
	d.rels[name] = tuplekey.NewTable[struct{}](2) //dyncq:allow epochstep declaring an empty relation adds no tuple or adom content
}

// parallelStepped mutates shards from worker closures; the closures
// count toward this body, which does advance the epoch.
func (d *Database) parallelStepped(shards []*tuplekey.Table[struct{}], tuple []Value) {
	done := make(chan struct{})
	for _, m := range shards {
		m := m
		go func() {
			m.Put(tuple, struct{}{})
			done <- struct{}{}
		}()
	}
	for range shards {
		<-done
	}
	d.epoch += uint64(len(shards))
}

// reader performs no writes: Get on a shard table and field reads.
func (d *Database) reader(rel string, tuple []Value) bool {
	m := d.rels[rel]
	if m == nil {
		return false
	}
	_, ok := m.Get(tuple)
	return ok && d.card > 0
}
