// Package stream reads and writes the update-stream line format, the one
// text form of a single-tuple update that the CLI's stream files and the
// serving front door's `apply` and batch lines share:
//
//	+E(1,2)     insert E(1,2)
//	-E(1,2)     delete E(1,2)
//	E(1,2)      insert (the sign is optional)
//
// The front door's frames list a query's result tuples in the same form,
// with the query name as the relation (`+q(1,2)`). Its one writer is
// AppendTupleLine (tupleline.go); its one reader, for every line, Parse.
//
// Tuple entries are int64 constants, or — in the string mode of the
// CLI's -strings flag — string constants turned into values by an encoder
// the caller hands in. The parser is strict: exactly one optional sign, a
// valid relation identifier (cq.IsIdentStart / cq.IsIdentPart, the query
// syntax's own rule), one parenthesised tuple, and nothing after the
// closing parenthesis; surrounding white space is ignored. Malformed
// input is rejected with an error naming the offence (doubled sign,
// trailing garbage, non-integer entry, a parenthesis inside a string
// entry, …).
//
// Parse is generic over the line's representation: a string where the
// caller holds one, and the bytes a bufio.Scanner lent where the line has
// not been copied out of the read buffer. It reads the line where it
// lies, parses the integers in place and appends the tuple to a slice the
// caller supplies, so a session that parses a batch into one reused Arena
// allocates nothing per line once the arena has grown.
package stream

import (
	"fmt"
	"unicode"
	"unicode/utf8"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
)

// text is what a line may be held in.
type text interface{ ~string | ~[]byte }

// Parse parses one update line, reading tuple entries as int64 constants
// (encode == nil) or as string constants — anything without a comma or
// parenthesis, surrounding white space trimmed — that encode turns into
// values (encode != nil; "42" is then a string, not the integer 42). The
// tuple is appended to vals and returned as the tail of out,
// out[len(vals):]; rel is a subslice of line. A rejected line leaves vals
// as it was (err != nil, out == vals); the values before len(vals) are
// never written (encode may already have seen the entries before the
// offending one). In int64 mode the layout AppendTupleLine writes takes a
// one-pass branch (parseCanonical); any other line, and every rejection,
// is parseGeneral's.
//
//dyncq:hot
func Parse[T text](line T, encode func(string) dyndb.Value, vals []dyndb.Value) (op dyndb.Op, rel T, out []dyndb.Value, err error) {
	if encode == nil {
		if op, rel, out, ok := parseCanonical(line, vals); ok {
			return op, rel, out, nil
		}
	}
	return parseGeneral(line, encode, vals)
}

// parseCanonical reads, in one pass, a line in the layout AppendTupleLine
// writes: an explicit sign, an ASCII identifier, '(', int64s with an
// optional '-' separated by commas, and a final ')'. On any other byte it
// gives up (ok false); what it accepts, parseGeneral reads alike.
//
//dyncq:hot
func parseCanonical[T text](line T, vals []dyndb.Value) (op dyndb.Op, rel T, out []dyndb.Value, ok bool) {
	if len(line) < 5 || line[0] != '+' && line[0] != '-' || line[1] >= utf8.RuneSelf || !identASCII[0][line[1]] {
		return op, rel, vals, false // a line holds a sign, a name, '(', a digit and ')'
	}
	at := 2
	for at < len(line) && line[at] < utf8.RuneSelf && identASCII[1][line[at]] {
		at++
	}
	if at == len(line) || line[at] != '(' {
		return op, rel, vals, false
	}
	if line[0] == '-' {
		op = dyndb.OpDelete
	}
	rel, out = line[1:at], vals
	for at++; ; at++ { // at: the first byte of a value
		v, end, ok := scanInt(line, at, false)
		if !ok || end == len(line) {
			return op, rel, vals, false
		}
		out = append(out, v) //dyncq:allow hotalloc out is the caller's arena: it grows to the largest batch once, then is reused
		switch at = end; {
		case line[at] == ')' && at == len(line)-1:
			return op, rel, out, true
		case line[at] != ',':
			return op, rel, vals, false
		}
	}
}

// identASCII holds cq.IsIdentStart (row 0) and cq.IsIdentPart (row 1) per ASCII byte.
var identASCII = func() (t [2][utf8.RuneSelf]bool) {
	for b := range t[0] {
		t[0][b], t[1][b] = cq.IsIdentStart(rune(b)), cq.IsIdentPart(rune(b))
	}
	return t
}()

// parseGeneral is Parse on any line — white space, an optional sign, any
// identifier, string mode — and alone rejects lines.
//
//dyncq:hot
func parseGeneral[T text](line T, encode func(string) dyndb.Value, vals []dyndb.Value) (op dyndb.Op, rel T, out []dyndb.Value, err error) {
	s := trimSpace(line)
	if len(s) == 0 {
		return op, rel, vals, reject(line, emptyCommand, s, 0)
	}
	switch s[0] {
	case '+':
		s = trimSpace(s[1:])
	case '-':
		op = dyndb.OpDelete
		s = trimSpace(s[1:])
	}
	// A second sign after the first is a doubled sign ("+-E(1,2)"), not a
	// weird relation name: reject it explicitly.
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		return op, rel, vals, reject(line, doubledSign, s, 0)
	}
	open := indexByte(s, '(')
	if open <= 0 {
		return op, rel, vals, reject(line, noTuple, s, 0)
	}
	closing := indexByte(s, ')')
	switch {
	case closing < 0:
		return op, rel, vals, reject(line, missingClose, s, 0)
	case closing != len(s)-1:
		return op, rel, vals, reject(line, trailingGarbage, s[closing+1:], 0)
	}
	rel = trimSpace(s[:open])
	if !ValidIdent(rel) {
		return op, rel, vals, reject(line, badRelation, rel, 0)
	}
	// The entries between the parentheses, comma-separated; the body holds
	// no ')' (closing is the first), so a '(' in it is an entry's problem.
	body := s[open+1 : closing]
	out = vals
	for i, at := 1, 0; ; i++ {
		end := at
		for end < len(body) && body[end] != ',' {
			end++
		}
		f := trimSpace(body[at:end])
		switch {
		case len(f) == 0 && i == 1 && end == len(body):
			return op, rel, vals, reject(line, emptyTuple, f, 0)
		case len(f) == 0:
			return op, rel, vals, reject(line, emptyEntry, f, i)
		case encode != nil:
			if indexByte(f, '(') >= 0 {
				return op, rel, vals, reject(line, parenInEntry, f, i)
			}
			out = append(out, encode(string(f))) //dyncq:allow hotalloc string mode encodes the entry's text; out is the caller's arena
		default:
			v, end, ok := scanInt(f, 0, true)
			if !ok || end != len(f) {
				return op, rel, vals, reject(line, notInt64, f, i)
			}
			out = append(out, v) //dyncq:allow hotalloc out is the caller's arena: it grows to the largest batch once, then is reused
		}
		if end == len(body) {
			return op, rel, out, nil
		}
		at = end + 1
	}
}

// failure names the rule a rejected line broke; reject renders it.
type failure uint8

const (
	emptyCommand failure = iota
	doubledSign
	noTuple
	missingClose
	trailingGarbage
	badRelation
	emptyTuple
	emptyEntry
	parenInEntry
	notInt64
)

// reject builds the error for a rejected line: part is the offending
// text (the garbage, the relation name, the entry) and entry the 1-based
// entry number where one is named. The rejection path only — Parse's
// callers do not expect a malformed line to be cheap.
func reject[T text](line T, why failure, part T, entry int) error {
	l, p := string(line), string(part)
	switch why {
	case emptyCommand:
		return fmt.Errorf("malformed update %q: empty command (want [+|-]R(v1,…,vr))", l)
	case doubledSign:
		return fmt.Errorf("malformed update %q: doubled sign", l)
	case noTuple:
		return fmt.Errorf("malformed update %q (want [+|-]R(v1,…,vr))", l)
	case missingClose:
		return fmt.Errorf("malformed update %q: missing ')'", l)
	case trailingGarbage:
		return fmt.Errorf("malformed update %q: garbage after ')': %q", l, p)
	case badRelation:
		return fmt.Errorf("malformed update %q: invalid relation name %q", l, p)
	case emptyTuple:
		return fmt.Errorf("malformed update %q: empty tuple", l)
	case emptyEntry:
		return fmt.Errorf("malformed update %q: empty tuple entry %d", l, entry)
	case parenInEntry:
		return fmt.Errorf("malformed update %q: tuple entry %d (%q) contains '('", l, entry, p)
	default:
		return fmt.Errorf("malformed update %q: tuple entry %d (%q) is not an int64", l, entry, p)
	}
}

// indexByte is strings.IndexByte / bytes.IndexByte for either text.
func indexByte[T text](s T, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// trimSpace is strings.TrimSpace / bytes.TrimSpace for either text: it
// strips leading and trailing Unicode white space, and an ASCII byte costs
// one comparison.
func trimSpace[T text](s T) T {
	for len(s) > 0 {
		r, n := rune(s[0]), 1
		if r >= utf8.RuneSelf {
			r, n = firstRune(s)
		}
		if !isSpace(r) {
			break
		}
		s = s[n:]
	}
	for len(s) > 0 {
		r, n := rune(s[len(s)-1]), 1
		if r >= utf8.RuneSelf {
			r, n = lastRune(s)
		}
		if !isSpace(r) {
			break
		}
		s = s[:len(s)-n]
	}
	return s
}

func isSpace(r rune) bool {
	if r < utf8.RuneSelf {
		return r == ' ' || '\t' <= r && r <= '\r'
	}
	return unicode.IsSpace(r)
}

// firstRune and lastRune decode the rune at either end of s through a
// stack copy of at most utf8.UTFMax bytes, which is all either decoder
// reads.
func firstRune[T text](s T) (rune, int) {
	var buf [utf8.UTFMax]byte
	return utf8.DecodeRune(buf[:copy(buf[:], s)])
}

func lastRune[T text](s T) (rune, int) {
	var buf [utf8.UTFMax]byte
	return utf8.DecodeLastRune(buf[:copy(buf[:], s[max(len(s)-utf8.UTFMax, 0):])])
}

// ValidIdent reports whether s is an identifier of the query syntax: the
// rule a relation name in an update line follows, and a query name, so
// that the query's tuple lines parse.
func ValidIdent[T text](s T) bool {
	for i := 0; i < len(s); {
		r, n := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, n = firstRune(s[i:])
		}
		if i == 0 && !cq.IsIdentStart(r) || i > 0 && !cq.IsIdentPart(r) {
			return false
		}
		i += n
	}
	return len(s) > 0
}

// scanInt reads the int64 at s[at:] — an optional '-' (or '+', if plus),
// then decimal digits up to the first other byte — and the index past it:
// strconv.ParseInt(f, 10, 64) is scanInt(f, 0, true) ending at len(f).
func scanInt[T text](s T, at int, plus bool) (v dyndb.Value, end int, ok bool) {
	neg := at < len(s) && s[at] == '-'
	if neg || plus && at < len(s) && s[at] == '+' {
		at++
	}
	// The magnitude, with room for the one more that math.MinInt64 has.
	var u uint64
	first := at
	for ; at < len(s) && s[at]-'0' <= 9; at++ {
		if u > (1<<63)/10 {
			return 0, at, false
		}
		u = u*10 + uint64(s[at]-'0')
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	if at == first || u > limit {
		return 0, at, false
	}
	if neg {
		u = -u
	}
	return dyndb.Value(u), at, true
}

// Arena parses the update lines of one batch into a value array it keeps:
// each tuple is a capped window of the array, so a batch of any length
// costs no allocation per line once the array has grown to the largest
// batch seen, and relation names come from a Names table. Reset at the
// start of every batch — the tuples of the previous one are overwritten
// from then on, so they must be dead by then (Workspace.Commit keeps
// nothing of a batch it has returned from). The zero value is ready.
type Arena struct {
	vals  []dyndb.Value
	names Names
}

// Reset starts a new batch, reusing the array.
func (a *Arena) Reset() { a.vals = a.vals[:0] }

// Parse parses one int64-mode line into the arena. The update's tuple
// lives until the next Reset; line is not retained.
//
//dyncq:hot
func (a *Arena) Parse(line []byte) (dyndb.Update, error) {
	op, rel, vals, err := Parse(line, nil, a.vals)
	if err != nil {
		return dyndb.Update{}, err
	}
	n := len(a.vals)
	a.vals = vals
	return dyndb.Update{Op: op, Rel: a.names.Intern(rel), Tuple: vals[n:len(vals):len(vals)]}, nil
}

// namesCap bounds a Names table: at most this many names, each at most
// this many bytes, so a table costs a few KiB whatever a peer sends.
const namesCap = 64

// Names interns relation names read from a reused line buffer: a name the
// table holds costs a map lookup and no allocation. Past namesCap names,
// or for a name longer than namesCap bytes, every line allocates its own
// string. The zero value is ready.
type Names struct {
	m map[string]string
}

// Intern returns name as a string, the table's copy when it has one.
//
//dyncq:hot
func (t *Names) Intern(name []byte) string {
	if s, ok := t.m[string(name)]; ok { //dyncq:allow hotalloc a map index by string(b) does not copy b
		return s
	}
	s := string(name) //dyncq:allow hotalloc a name the table does not hold, once per name while it has room
	if len(t.m) < namesCap && len(s) <= namesCap {
		if t.m == nil {
			t.m = make(map[string]string, namesCap) //dyncq:allow hotalloc once per table
		}
		t.m[s] = s
	}
	return s
}
