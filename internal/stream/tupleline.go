package stream

import (
	"fmt"
	"strconv"
	"strings"

	"dyncq/internal/dyndb"
)

// This file writes the line format, and reads back what it writes: a sign,
// the name, the integers in decimal between parentheses, no white space.
// Every writer of the format emits it through AppendTupleLine — the
// serving front door's `enumerate` and `delta` frames (a query's result
// tuples, the query name as the relation), the snapshot leaves those
// frames are cut from, and FormatUpdate. ParseTupleLine is the client's
// reader of frames, strict about that layout (no white space, no '+' on a
// value, no sign-less line), where Parse reads the update lines people
// write.

// decimalLen returns the number of bytes strconv.AppendInt renders v in.
//
//dyncq:hot
func decimalLen(v dyndb.Value) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u // the magnitude of math.MinInt64 is its own bit pattern
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// TupleLineLen returns the number of bytes AppendTupleLine renders tuple
// in: the encoders size their buffers from the values, so a block that is
// kept — a snapshot leaf's for as long as the leaf lives, a delta frame's
// while it sits in outboxes — holds no slack.
//
//dyncq:hot
func TupleLineLen(name string, tuple []dyndb.Value) int {
	n := len(name) + 4 + max(len(tuple)-1, 0) // sign, parentheses, newline; commas
	for _, v := range tuple {
		n += decimalLen(v)
	}
	return n
}

// AppendTupleLine appends `<sign><name>(v1,…,vk)\n` to buf and returns
// the extended slice. The caller provides the backing array;
// AppendTupleLine only ever appends.
//
//dyncq:hot
func AppendTupleLine(buf []byte, sign byte, name string, tuple []dyndb.Value) []byte {
	b := buf[:]
	b = append(b, sign)
	b = append(b, name...)
	b = append(b, '(')
	for i, v := range tuple {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, ')', '\n')
	return b
}

// ParseTupleLine decodes one `<sign><name>(v1,…,vk)` line as emitted by
// AppendTupleLine, without its newline, appending the values to vals and
// returning it extended: the tuple is the appended tail, so a caller
// decoding a frame keeps one backing array for all its tuples. The
// integers are parsed where they stand — nothing is split or copied. A
// rejected line leaves vals as it was.
func ParseTupleLine(line string, vals []dyndb.Value) (sign byte, name string, out []dyndb.Value, err error) {
	if len(line) < 4 || (line[0] != '+' && line[0] != '-') {
		return 0, "", vals, fmt.Errorf("malformed tuple line %q", line)
	}
	open := strings.IndexByte(line, '(')
	if open < 1 || line[len(line)-1] != ')' {
		return 0, "", vals, fmt.Errorf("malformed tuple line %q", line)
	}
	out = vals
	for at, end := open+1, len(line)-1; at < end; at++ { // at: the first byte of a value
		neg := line[at] == '-'
		if neg {
			at++
		}
		// The magnitude, with room for the one more that math.MinInt64 has.
		var u uint64
		first := at
		for ; at < end && line[at] != ','; at++ {
			d := line[at] - '0'
			if d > 9 || u > (1<<63)/10 {
				return 0, "", vals, fmt.Errorf("malformed value in tuple line %q", line)
			}
			u = u*10 + uint64(d)
		}
		limit := uint64(1<<63 - 1)
		if neg {
			limit++
		}
		if at == first || u > limit || at == end-1 { // no digits; out of range; a comma with nothing after it
			return 0, "", vals, fmt.Errorf("malformed value in tuple line %q", line)
		}
		if neg {
			u = -u
		}
		out = append(out, dyndb.Value(u))
	}
	return line[0], line[1:open], out, nil
}

// TupleArity returns the number of values in a well-formed tuple line, to
// size a frame's backing array by before its lines are parsed.
func TupleArity(line string) int {
	if strings.HasSuffix(line, "()") {
		return 0
	}
	return strings.Count(line, ",") + 1
}
