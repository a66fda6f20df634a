package dyndb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestRelationIDsSurviveClear: a relation keeps the id its first
// declaration or registration fixed through Clear and a re-declaration at
// another arity, NetDelta records it on every command it returns, a
// delete naming an unknown relation creates none, a batch's declaring
// insert gets one, and a requirement survives Clear.
func TestRelationIDsSurviveClear(t *testing.T) {
	db := New()
	if _, err := db.Insert("E", 1, 2); err != nil {
		t.Fatal(err)
	}
	e, tid := RelationID(db, "E"), RelationID(db, "T") // T: registered, not declared
	if e == tid || RelationID(db, "E") != e || db.Relation("T") != nil {
		t.Fatalf("ids E=%d T=%d; a registration declared T: %v", e, tid, db.Relation("T") != nil)
	}
	Require(db, "R", 2)
	r := RelationID(db, "R")

	db.Clear()
	if db.Relation("E") != nil || len(db.Relations()) != 0 {
		t.Fatal("Clear kept a declaration")
	}
	if RelationID(db, "E") != e || RelationID(db, "T") != tid || RelationID(db, "R") != r {
		t.Fatal("Clear reassigned an id")
	}
	if _, err := db.Insert("E", 1, 2, 3); err != nil { // E re-declared at arity 3
		t.Fatal(err)
	}
	net, err := db.NetDelta([]Update{Insert("E", 4, 5, 6), Delete("E", 1, 2, 3), Insert("T", 7), Insert("T", 8)})
	if err != nil || len(net) != 4 {
		t.Fatalf("net %v, err %v", net, err)
	}
	for i, want := range []int{e, e, tid, tid} {
		if got := IDOf(net[i]); got != want {
			t.Fatalf("survivor %s carries id %d, want %d", net[i], got, want)
		}
	}
	db.ApplyNetDelta(net, 0)
	if db.Relation("E").Arity() != 3 || db.Relation("T").Len() != 2 {
		t.Fatal("the delta did not reach E and T")
	}

	ids := len(db.rels)
	if net, err := db.NetDelta([]Update{Delete("Z", 1), Delete("Z", 2), Delete("E", 9, 9, 9)}); err != nil || len(net) != 0 {
		t.Fatalf("deletes of absent tuples net to %v, err %v", net, err)
	}
	if _, err := db.Delete("Z", 1); err != nil || len(db.rels) != ids {
		t.Fatalf("a delete naming an unknown relation assigned an id (err %v)", err)
	}
	net, err = db.NetDelta([]Update{Delete("W", 1), Insert("W", 1), Insert("W", 2)})
	if err != nil || len(net) != 2 || IDOf(net[0]) != ids || IDOf(net[1]) != ids {
		t.Fatalf("a batch declaring W: net %v, err %v, want two commands with the new id %d", net, err, ids)
	}

	for _, bad := range [][]Update{{Insert("R", 1, 2, 3)}, {Delete("R", 1)}} {
		if _, err := db.NetDelta(bad); err == nil || !strings.Contains(err.Error(), "required arity 2") {
			t.Fatalf("%v on R, required at arity 2 across Clear: err %v", bad, err)
		}
	}
	if err := db.EnsureRelation("R", 3); err == nil {
		t.Fatal("R was declared at an arity its requirement forbids")
	}
	Require(db, "R", 0)
	if err := db.EnsureRelation("R", 3); err != nil || RelationID(db, "R") != r {
		t.Fatalf("lifting R's requirement: %v", err)
	}
}

// The differential fuzz target: NetDelta and ApplyNetDelta against a map
// model of the store's set semantics, over a few names and arities.

// fuzzRels are the relation names FuzzNetDelta draws from; the last is
// required (Require) at fuzzRequired.
var fuzzRels = []string{"A", "B", "C", "D"}

const fuzzRequired = 2

// modelDB is the map model: per declared relation its arity and tuple set.
type modelDB map[string]*modelRel

type modelRel struct {
	arity  int
	tuples map[string]bool
}

func tupleKey(t []Value) string { return fmt.Sprint(t) }

// netDelta is the reference NetDelta: coalesce by (relation, tuple) with
// the last command winning at its first appearance, validate in that
// order, keep the commands that change the model.
func (m modelDB) netDelta(batch []Update) ([]Update, error) {
	at := map[string]int{}
	var net []Update
	for _, u := range batch {
		k := u.Rel + tupleKey(u.Tuple)
		if i, ok := at[k]; ok {
			net[i] = u
			continue
		}
		at[k] = len(net)
		net = append(net, u)
	}
	fresh := map[string]int{}
	var out []Update
	for _, u := range net {
		n := len(u.Tuple)
		if r := m[u.Rel]; r != nil {
			if r.arity != n {
				return nil, fmt.Errorf("%s: arity %d, declared %d", u, n, r.arity)
			}
			if (u.Op == OpInsert) != r.tuples[tupleKey(u.Tuple)] {
				out = append(out, u)
			}
			continue
		}
		if u.Rel == fuzzRels[len(fuzzRels)-1] {
			if n != fuzzRequired {
				return nil, fmt.Errorf("%s: arity %d, required %d", u, n, fuzzRequired)
			}
			if u.Op == OpInsert {
				out = append(out, u)
			}
			continue
		}
		if want, ok := fresh[u.Rel]; ok && want != n {
			return nil, fmt.Errorf("%s: arity %d, %d earlier in the batch", u, n, want)
		}
		if u.Op == OpInsert {
			if n == 0 {
				return nil, fmt.Errorf("%s: empty tuple", u)
			}
			fresh[u.Rel] = n
			out = append(out, u)
		}
	}
	return out, nil
}

func (m modelDB) apply(delta []Update) {
	for _, u := range delta {
		r := m[u.Rel]
		if r == nil {
			r = &modelRel{arity: len(u.Tuple), tuples: map[string]bool{}}
			m[u.Rel] = r
		}
		if u.Op == OpInsert {
			r.tuples[tupleKey(u.Tuple)] = true
		} else {
			delete(r.tuples, tupleKey(u.Tuple))
		}
	}
}

// sameContent requires db to hold exactly the model's relations and
// tuples.
func (m modelDB) sameContent(db *Database) error {
	names := []string{}
	for _, name := range fuzzRels {
		if m[name] != nil {
			names = append(names, name)
		}
	}
	if got := db.Relations(); !reflect.DeepEqual(got, names) {
		return fmt.Errorf("declared %v, model %v", got, names)
	}
	card := 0
	for _, name := range names {
		r, want := db.Relation(name), m[name]
		if r.Arity() != want.arity || r.Len() != len(want.tuples) {
			return fmt.Errorf("%s: arity %d with %d tuples, model %d with %d", name, r.Arity(), r.Len(), want.arity, len(want.tuples))
		}
		for _, t := range r.Tuples() {
			if !want.tuples[tupleKey(t)] {
				return fmt.Errorf("%s holds %v, the model does not", name, t)
			}
		}
		card += r.Len()
	}
	if db.Cardinality() != card {
		return fmt.Errorf("|D| %d, model %d", db.Cardinality(), card)
	}
	return nil
}

// runNetDeltaProgram decodes prog into batches and Clears and checks
// every batch against the model. A batch is a length byte (0xff: Clear
// instead) and per command two bytes: the low bit of the first is the
// op, its next two bits the relation, the two above them the arity
// (0..3, 0 the empty tuple no relation takes); the second byte's 2-bit
// fields are the values.
func runNetDeltaProgram(t *testing.T, prog []byte) {
	db, m := New(), modelDB{}
	Require(db, fuzzRels[len(fuzzRels)-1], fuzzRequired)
	buildIndexes := func() { // masks every arity the relation can take fits
		db.Index("A", 0b01)
		db.Index("B", 0b01)
		db.Index(fuzzRels[len(fuzzRels)-1], 0b10)
	}
	buildIndexes()
	for step := 0; len(prog) > 0; step++ {
		n := int(prog[0])
		prog = prog[1:]
		if n == 0xff {
			db.Clear()
			m = modelDB{}
			buildIndexes()
			continue
		}
		n %= 24
		var batch []Update
		for ; n > 0 && len(prog) >= 2; n-- {
			op, vals := prog[0], prog[1]
			prog = prog[2:]
			tuple := make([]Value, int(op>>3&3))
			for j := range tuple {
				tuple[j] = Value(vals >> (2 * j) & 3)
			}
			u := Insert(fuzzRels[op>>1&3], tuple...)
			if op&1 == 1 {
				u.Op = OpDelete
			}
			batch = append(batch, u)
		}
		want, wantErr := m.netDelta(batch)
		got, err := db.NetDelta(batch)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("step %d %v: NetDelta error %v, model %v", step, batch, err, wantErr)
		}
		if err != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("step %d %v: survivors %v, model %v", step, batch, got, want)
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Op != w.Op || g.Rel != w.Rel || !reflect.DeepEqual(g.Tuple, w.Tuple) || IDOf(g) != RelationID(db, g.Rel) {
				t.Fatalf("step %d %v: survivor %d is %v (id %d), model %v", step, batch, i, g, IDOf(g), w)
			}
		}
		db.ApplyNetDelta(got, 0)
		m.apply(want)
		if err := m.sameContent(db); err != nil {
			t.Fatalf("step %d %v: %v", step, batch, err)
		}
		if err := db.CheckIndexes(); err != nil {
			t.Fatalf("step %d %v: %v", step, batch, err)
		}
	}
}

// FuzzNetDelta runs arbitrary programs against the model; the seeds
// cover arity clashes, empty tuples, undeclared and required relations,
// Clear, relations emptied and refilled under built indexes, and deletes
// at both ends of one key's list.
func FuzzNetDelta(f *testing.F) {
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 4; i++ {
		prog := make([]byte, 600)
		rng.Read(prog)
		for j := 0; j < len(prog); j += 97 {
			prog[j] = 0xff
		}
		f.Add(prog)
	}
	f.Add([]byte{3, 0b00010, 1, 0b00011, 1, 0b01010, 5, 0xff, 2, 0b00001, 1, 0b00000, 1})
	// D is required at arity 2 and indexed on y, A indexed on its one
	// position: fill both, empty them with their indexes built, refill.
	const insD, delD, insA, delA = 0b10110, 0b10111, 0b01000, 0b01001
	var refill []byte
	for _, op := range []byte{insD, delD, insD} {
		refill = append(refill, 16)
		for v := byte(0); v < 16; v++ {
			refill = append(refill, op, v)
		}
	}
	for _, op := range []byte{insA, delA, insA} {
		refill = append(refill, 4)
		for v := byte(0); v < 4; v++ {
			refill = append(refill, op, v)
		}
	}
	f.Add(refill)
	// D(0,1) … D(3,1), one batch each, then delete the oldest and the
	// newest of y=1's list, one from its middle, and the rest.
	y1 := func(x byte) byte { return x | 1<<2 }
	var ends []byte
	for x := byte(0); x < 4; x++ {
		ends = append(ends, 1, insD, y1(x))
	}
	ends = append(ends, 1, delD, y1(0), 1, delD, y1(3), 1, insD, y1(0), 1, delD, y1(2), 2, delD, y1(1), delD, y1(0))
	f.Add(ends)
	f.Fuzz(runNetDeltaProgram)
}
