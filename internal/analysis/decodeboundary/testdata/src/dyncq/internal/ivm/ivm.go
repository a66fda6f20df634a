// Positive/negative fixture: decode calls inside a hot-path package
// are flagged except inside the Enumerate/Tuples boundary functions or
// under an explicit allow.
package ivm

import "dyncq/internal/dict"

type store struct {
	d     *dict.Dict
	codes []int64
}

func (s *store) display(code int64) string {
	return s.d.Decode(code) // want `interned handles must stay interned`
}

func (s *store) displayAll(codes []int64) []string {
	return s.d.DecodeAll(codes) // want `interned handles must stay interned`
}

// Enumerate is the enumeration boundary: it hands each decoded value
// to the caller exactly once per delivered result.
func (s *store) Enumerate(yield func(string) bool) {
	for _, c := range s.codes {
		if !yield(s.d.Decode(c)) {
			return
		}
	}
}

// Tuples is the other boundary entry point.
func (s *store) Tuples() []string {
	return s.d.DecodeAll(s.codes)
}

func (s *store) errPath(code int64) (string, bool) {
	return s.d.TryDecode(code) //dyncq:allow decodeboundary one-shot display of the offending tuple on a cold error path
}

func (s *store) encodeFine(name string) int64 {
	return s.d.Encode(name)
}
