// Positive fixture: the allocation patterns hotalloc flags inside
// //dyncq:hot functions, with the pre-sized and panic-path forms that
// stay clean.
package a

import "fmt"

func sink(v any) { _ = v }

//dyncq:hot
func hotFmt(n int) {
	fmt.Println(n) // want `fmt\.Println`
}

//dyncq:hot
func hotSprintf(n int) string {
	return fmt.Sprintf("%d", n) // want `fmt\.Sprintf`
}

//dyncq:hot
func hotConcat(a, b string) string {
	return a + b // want `string concatenation`
}

//dyncq:hot
func hotPlusEquals(parts []string) string {
	s := ""
	for _, p := range parts {
		s += p // want `string \+=`
	}
	return s
}

//dyncq:hot
func hotConvert(b []byte) string {
	return string(b) // want `conversion`
}

//dyncq:hot
func hotConvertBack(s string) []byte {
	return []byte(s) // want `conversion`
}

//dyncq:hot
func hotMap() map[int]int {
	return make(map[int]int) // want `unsized make\(map\)`
}

//dyncq:hot
func hotAppend(dst []int, v int) []int {
	return append(dst, v) // want `append to unsized destination`
}

//dyncq:hot
func hotBox(v int64) {
	sink(v) // want `boxes int64 into interface`
}

//dyncq:hot
func hotAppendSized(src []int) []int {
	out := make([]int, 0, len(src))
	for _, v := range src {
		out = append(out, v)
	}
	return out
}

//dyncq:hot
func hotReslice(buf []int, v int) []int {
	out := buf[:0]
	out = append(out, v)
	return append(out[:0], v)
}

//dyncq:hot
func hotSizedMap(n int) map[int]int {
	return make(map[int]int, n) // want `make\(map\) in hot function hotSizedMap allocates on every call`
}

type table[V any] struct{ vals []V }

func newTable[V any](n int) *table[V] { return &table[V]{vals: make([]V, n)} }

func NewTable[V any](n int) *table[V] { return newTable[V](n) }

type pool struct{}

func (pool) NewBuffer() []byte { return nil }

//dyncq:hot
func hotConstructor(p pool) int {
	t := NewTable[int](8)  // want `constructor NewTable in hot function hotConstructor`
	u := NewTable[string]  // a function value, not a call
	b := p.NewBuffer()     // want `constructor NewBuffer in hot function hotConstructor`
	k := newTable[int8](8) // lower-case helpers are not matched by name
	return len(t.vals) + len(u(1).vals) + len(b) + len(k.vals)
}

// hotReusedScratch is the shape the rule asks for: the map and the table
// live on the receiver, the hot function only empties and refills them.
type scratch struct {
	seen map[int]int
	tab  *table[int]
}

//dyncq:hot
func (s *scratch) hotReusedScratch(keys []int) {
	clear(s.seen)
	for _, k := range keys {
		s.seen[k]++
	}
	s.tab.vals = s.tab.vals[:0]
}

//dyncq:hot
func hotPanicPath(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("negative count %d", n))
	}
	return n * 2
}

//dyncq:hot
func hotAllowed(counts map[string]int, k string) string {
	return "rel:" + k //dyncq:allow hotalloc diagnostics label built once per batch, not per tuple
}
