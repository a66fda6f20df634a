package stream

import (
	"strconv"

	"dyncq/internal/dyndb"
)

// This file writes the line format: a sign, the name, the integers in
// decimal between parentheses, no white space. Every writer of the format
// emits it through AppendTupleLine — `enumerate` and `delta` frames, the
// snapshot leaves frames are cut from, the client's `apply` and batch
// lines, and FormatUpdate — and Parse reads it back in one pass.

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
// the extended slice, the sign '+' for an insert and '-' for a delete. The
// caller provides the backing array; AppendTupleLine only ever appends.
//
//dyncq:hot
func AppendTupleLine(buf []byte, op dyndb.Op, name string, tuple []dyndb.Value) []byte {
	b := buf[:]
	b = append(b, "+-"[op])
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
