// Dependency fixture mirroring the real tuplekey.Table shape: the
// analyzer identifies relation shard tables by this type.
package tuplekey

type Table[V any] struct {
	m map[string]*V
}

func NewTable[V any](arity int) *Table[V] {
	return &Table[V]{m: make(map[string]*V)}
}

func (t *Table[V]) Put(k []int64, v V)    { t.m[key(k)] = &v }
func (t *Table[V]) Delete(k []int64) bool { _, ok := t.m[key(k)]; delete(t.m, key(k)); return ok }

func (t *Table[V]) Get(k []int64) (V, bool) {
	if p, ok := t.m[key(k)]; ok {
		return *p, true
	}
	var zero V
	return zero, false
}

// Ref is get-or-insert: it adds the key when it is absent.
func (t *Table[V]) Ref(k []int64) (*V, bool) {
	p, ok := t.m[key(k)]
	if !ok {
		p = new(V)
		t.m[key(k)] = p
	}
	return p, ok
}

func key(k []int64) string {
	b := make([]byte, 0, len(k)*8)
	for _, v := range k {
		for i := 0; i < 8; i++ {
			b = append(b, byte(v>>(8*i)))
		}
	}
	return string(b)
}
