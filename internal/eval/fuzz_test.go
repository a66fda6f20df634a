package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
)

// fuzzRels are the relations a fuzzed query and database draw from.
var fuzzRels = [...]struct {
	name  string
	arity int
}{{"E", 2}, {"R", 3}, {"S", 1}, {"T", 1}}

// decodeEvalCase reads a query, a database and a restriction from data;
// every input decodes, running out of bytes reads zeros. Byte 0 gives the
// number of atoms (1–4, low two bits) and which of the variables v0–v3 the
// head lists (next four bits, kept only if the body uses them). Each atom
// is a byte — relation in the low two bits, bit 4 restricts the atom — and
// one byte per argument, the variable in its low two bits, so variables
// repeat freely. The remaining bytes are tuple records of at most 32:
// a tag byte and one value byte per position, values 0–3. A tag with bit
// 7 clear stores a tuple of relation tag&3; with bit 7 set it adds a tuple
// to the restriction set of atom (tag>>2&3) mod the atom count, if that
// atom is restricted, at the atom's arity — one more if bit 6 is set, a
// tuple no evaluation may match. Restriction sets hold distinct tuples,
// as the ivm delta rules' sets do.
func decodeEvalCase(data []byte) (*cq.Query, *dyndb.Database, Restricted) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	b0 := next()
	q := &cq.Query{Name: "Q"}
	restricted := Restricted{}
	used := map[string]bool{}
	for i := range 1 + int(b0&3) {
		b := next()
		rel := fuzzRels[b&3]
		args := make([]string, rel.arity)
		for j := range args {
			args[j] = fmt.Sprintf("v%d", next()&3)
			used[args[j]] = true
		}
		q.Atoms = append(q.Atoms, cq.Atom{Rel: rel.name, Args: args})
		if b&0x10 != 0 {
			restricted[i] = nil
		}
	}
	for v := range 4 {
		if name := fmt.Sprintf("v%d", v); b0>>(2+v)&1 == 1 && used[name] {
			q.Head = append(q.Head, name)
		}
	}
	db := dyndb.New()
	seen := map[string]bool{}
	for n := 0; len(data) > 0 && n < 32; n++ {
		tag := next()
		if tag&0x80 == 0 {
			rel := fuzzRels[tag&3]
			tup := make([]Value, rel.arity)
			for j := range tup {
				tup[j] = Value(next() & 3)
			}
			db.Insert(rel.name, tup...)
			continue
		}
		atom := int(tag>>2&3) % len(q.Atoms)
		arity := len(q.Atoms[atom].Args)
		if tag&0x40 != 0 {
			arity++
		}
		tup := make([]Value, arity)
		for j := range tup {
			tup[j] = Value(next() & 3)
		}
		set, ok := restricted[atom]
		if k := fmt.Sprint(atom, tup); ok && !seen[k] {
			seen[k] = true
			restricted[atom] = append(set, tup)
		}
	}
	return q, db, restricted
}

// FuzzEvaluate checks Evaluate and CountValuations, unrestricted and with
// the decoded restriction, against bruteForce on small queries over E, R,
// S and T (see decodeEvalCase) and tiny databases.
func FuzzEvaluate(f *testing.F) {
	// The paper's hard query with its restriction on S, a repeated
	// variable inside one restricted atom, and random inputs.
	f.Add([]byte{0x06 | 0x08, 0x12, 0, 0, 0, 1, 3, 1, 2, 0, 0, 0, 1, 3, 1, 0x80, 2, 0x80, 0})
	f.Add([]byte{0x0c, 0x11, 1, 0, 0, 1, 0, 1, 1, 1, 1, 2, 2, 0x80, 1, 2, 2, 0x80, 3, 1, 1, 0xc0, 1, 1, 1, 1})
	rng := rand.New(rand.NewSource(3))
	for range 6 {
		seed := make([]byte, 16+rng.Intn(48))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, db, restricted := decodeEvalCase(data)
		if err := q.Validate(); err != nil {
			t.Fatalf("decoded an invalid query %s: %v", q, err)
		}
		checkAgainstBrute(t, "unrestricted", q, db, nil)
		if len(restricted) > 0 {
			checkAgainstBrute(t, "restricted to "+strings.TrimPrefix(fmt.Sprint(restricted), "map"), q, db, restricted)
		}
	})
}
