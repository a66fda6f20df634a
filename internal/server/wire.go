// Package server is the dyncq serving front door: a long-lived
// multi-client server process owning one Workspace. Clients speak a
// line-oriented wire protocol over any net.Conn (TCP in production,
// net.Pipe in deterministic tests), reusing the update-stream text
// format for tuples: `+E(1,2)` inserts, `-E(1,2)` deletes, and result
// tuples are rendered the same way with the query name as the relation.
//
// # Wire protocol
//
// Requests are single lines. Responses are either a single line
// (`ok …` / `err <message>` / `bye`) or a multi-line frame terminated
// by a lone `.`:
//
//	register <name> <query text>      -> ok registered <name> <strategy> <version>
//	unregister <name>                 -> ok unregistered <name>
//	apply <update>                    -> ok applied <0|1> <version>
//	begin                             -> ok begin          (then bare ±R(t) lines)
//	commit                            -> ok committed <n> <version>
//	abort                             -> ok aborted
//	count <name>                      -> ok count <name> <n> <version>
//	answer <name>                     -> ok answer <name> <true|false> <version>
//	enumerate <name>                  -> snapshot <name> <n> <version> <arity>
//	                                     +<name>(v,…)  ×n
//	                                     .
//	subscribe <name>                  -> ok subscribed <name> <version>
//	unsubscribe <name>                -> ok unsubscribed <name>
//	queries                           -> ok queries <csv>
//	version                           -> ok version <v>
//	ping                              -> ok pong
//	quit                              -> bye
//
// The version in `ok applied` and `ok committed` is the one that commit
// produced (or left in place, when it changed nothing) — the key a
// writer joins its commit to the delta frame of the same version on —
// whatever other sessions have committed by the time the reply is
// written.
//
// A subscription asynchronously pushes one delta frame per committed
// version (even when that query's result did not change — subscribers
// track versions in lockstep):
//
//	delta <name> <version> <nAdded> <nRemoved>
//	+<name>(v,…)  ×nAdded
//	-<name>(v,…)  ×nRemoved
//	.
//
// Added and removed tuples are sorted lexicographically and each frame
// is encoded exactly once, so every subscriber of a query receives
// byte-identical delta streams. `enumerate` frames follow the same
// encode-once discipline: each is encoded once per (query, version)
// and the identical bytes are fanned out to every client asking while
// that version is current. Their tuples are in lexicographic order too,
// whatever strategy maintains the query — the frame is a function of the
// result set, byte-identical across strategies, shard counts and worker
// counts — so a client keeping a mirror applies each later delta frame
// to the snapshot by one sorted merge. A subscriber that cannot keep up
// (bounded per-connection outbox) has frames dropped; on recovery it
// receives a single
//
//	resync <name> <version> <dropped>
//
// line instead, after which it must re-enumerate and skip deltas with
// version <= the snapshot's version. The same subscribe → enumerate →
// skip-stale-deltas pattern is how a fresh subscriber syncs: the
// version in `ok subscribed` is a pre-capture lower bound, not an
// exact stream start.
package server

import (
	"fmt"
	"strconv"
	"strings"

	"dyncq/pkg/dyncq"
)

// Frame terminator for multi-line frames.
const frameEnd = ".\n"

// appendTupleLine appends `<sign><name>(v1,…,vk)\n` to buf and returns
// the extended slice. The caller provides the backing array;
// appendTupleLine only ever appends.
//
//dyncq:hot
func appendTupleLine(buf []byte, sign byte, name string, tuple []dyncq.Value) []byte {
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

// encodeDelta renders one DeltaEvent as a complete wire frame. It is
// called once per event; the broker hands the same slice to every
// subscriber, which is what makes cross-connection delta streams
// byte-identical.
//
//dyncq:hot
func encodeDelta(ev dyncq.DeltaEvent) []byte {
	est := len(ev.Query) + 48
	for _, t := range ev.Added {
		est += len(ev.Query) + 4 + 21*len(t)
	}
	for _, t := range ev.Removed {
		est += len(ev.Query) + 4 + 21*len(t)
	}
	buf := make([]byte, 0, est+len(frameEnd))
	buf = append(buf, "delta "...)
	buf = append(buf, ev.Query...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, ev.Version, 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(len(ev.Added)), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(len(ev.Removed)), 10)
	buf = append(buf, '\n')
	for _, t := range ev.Added {
		buf = appendTupleLine(buf, '+', ev.Query, t)
	}
	for _, t := range ev.Removed {
		buf = appendTupleLine(buf, '-', ev.Query, t)
	}
	buf = append(buf, frameEnd...)
	return buf
}

// encodeResync renders the per-subscriber lag notice. Only built on
// the degraded path (a subscriber recovering from overflow).
//
//dyncq:hot
func encodeResync(name string, version, dropped uint64) []byte {
	buf := make([]byte, 0, len(name)+56)
	buf = append(buf, "resync "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, version, 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, dropped, 10)
	buf = append(buf, '\n')
	return buf
}

// encodeSnapshot renders an `enumerate` response frame from a pinned
// MVCC snapshot. Runs without any workspace lock held. Callers go
// through Server.enumerateFrame, so each shared snapshot is encoded at
// most once (modulo benign racing misses) and every client receives
// the same bytes.
//
//dyncq:hot
func encodeSnapshot(s *dyncq.QuerySnapshot) []byte {
	name := s.Name()
	est := len(name) + 64 + s.Len()*(len(name)+4+21*s.Arity())
	buf := make([]byte, 0, est+len(frameEnd))
	buf = append(buf, "snapshot "...)
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(s.Len()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, s.Version(), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(s.Arity()), 10)
	buf = append(buf, '\n')
	s.Enumerate(func(t []dyncq.Value) bool {
		buf = appendTupleLine(buf, '+', name, t)
		return true
	})
	buf = append(buf, frameEnd...)
	return buf
}

// parseTupleLine decodes one `<sign><name>(v1,…,vk)` line as emitted
// by appendTupleLine (client side; not on the server hot path).
func parseTupleLine(line string) (sign byte, name string, tuple []dyncq.Value, err error) {
	if len(line) < 4 || (line[0] != '+' && line[0] != '-') {
		return 0, "", nil, fmt.Errorf("malformed tuple line %q", line)
	}
	sign = line[0]
	open := strings.IndexByte(line, '(')
	if open < 1 || line[len(line)-1] != ')' {
		return 0, "", nil, fmt.Errorf("malformed tuple line %q", line)
	}
	name = line[1:open]
	body := line[open+1 : len(line)-1]
	if body == "" {
		return sign, name, []dyncq.Value{}, nil
	}
	parts := strings.Split(body, ",")
	tuple = make([]dyncq.Value, len(parts))
	for i, p := range parts {
		v, perr := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if perr != nil {
			return 0, "", nil, fmt.Errorf("malformed value %q in tuple line %q", p, line)
		}
		tuple[i] = dyncq.Value(v)
	}
	return sign, name, tuple, nil
}

// sanitizeErr collapses an error message onto one line so it cannot
// break the line-oriented framing.
func sanitizeErr(err error) string {
	return strings.ReplaceAll(strings.ReplaceAll(err.Error(), "\r", " "), "\n", " ")
}
