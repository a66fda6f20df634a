package main

// This file is the dictionary of `dyncq run -strings`, the one path that
// turns string constants into domain values.
//
// The paper assumes dom = N (natural numbers) so that constants can index
// arrays in the RAM model, and the engine, the store and the wire carry
// only int64 values. Dictionary encoding is the standard bridge: every
// distinct external constant is assigned the next free code, and codes
// are translated back for display. Encoding is append-only — codes are
// never reused, so a code remains valid even after all tuples mentioning
// it have been deleted. Living in package main, the dictionary cannot be
// reached from the engine packages: decoding happens only where the CLI
// prints a result.

// dict maps external string constants to dense int64 codes and back.
// The zero value is not ready for use; call newDict.
type dict struct {
	codes map[string]int64
	names []string // names[code-1] == external name; codes start at 1
	hits  uint64   // Encode calls that found an existing code
	miss  uint64   // Encode calls that assigned a fresh code
}

// newDict returns an empty dictionary. Codes are assigned starting at 1,
// matching the paper's convention dom = N_{>=1} (0 is reserved so that
// zero-initialised storage never collides with a real constant).
func newDict() *dict {
	return &dict{codes: make(map[string]int64)}
}

// Encode returns the code for name, assigning a fresh code if name has not
// been seen before.
func (d *dict) Encode(name string) int64 {
	if c, ok := d.codes[name]; ok {
		d.hits++
		return c
	}
	d.miss++
	d.names = append(d.names, name)
	c := int64(len(d.names))
	d.codes[name] = c
	return c
}

// TryDecode returns the external name for code: the second result
// reports whether code was ever assigned.
func (d *dict) TryDecode(code int64) (string, bool) {
	if code < 1 || code > int64(len(d.names)) {
		return "", false
	}
	return d.names[code-1], true
}

// dictStats describes the dictionary's encoding traffic: Size is the
// number of distinct constants, Hits the Encode calls answered from the
// table, Misses the calls that assigned a fresh code (Hits+Misses is the
// total Encode traffic; Misses == Size always).
type dictStats struct {
	Size   int
	Hits   uint64
	Misses uint64
}

// Stats returns the dictionary's current encoding statistics.
func (d *dict) Stats() dictStats {
	return dictStats{Size: len(d.names), Hits: d.hits, Misses: d.miss}
}

// HitRate returns the fraction of Encode calls answered from the table,
// or 0 if Encode was never called.
func (s dictStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
