// Package server is the dyncq serving front door: a long-lived
// multi-client server process owning one Workspace. Clients speak a
// line-oriented wire protocol over any net.Conn (TCP in production,
// net.Pipe in deterministic tests), reusing the update-stream text
// format for tuples: `+E(1,2)` inserts, `-E(1,2)` deletes, and result
// tuples are rendered the same way with the query name as the relation —
// which is why a query name must be an identifier. The format has one
// home, internal/stream: its AppendTupleLine writes every tuple line (a
// snapshot leaf renders its own, QuerySnapshot.Blocks; the client its
// updates), and its Parse reads every one back — the session's update
// lines and the client's frame lines alike.
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
// Every frame a connection is sent — a reply, a delta, a resync or a
// snapshot — goes through one bounded outbox and leaves in the order it
// was queued: a session subscribed to the query it commits to reads a
// version's delta frame before the `ok committed` naming that version.
// A session's replies leave once it has read all the input it has: it
// dispatches every whole line it holds, then writes what they queued in
// one vectored write before it reads again (within a batch `ok begin`
// leaves without waiting for the commit). So a client on an unbuffered
// transport such as net.Pipe must read while it writes, as Client's
// demux goroutine does; one that writes a burst of requests and only
// then reads blocks against the session's reply write.
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
// encode-once discipline one level down: a snapshot's rows live in
// copy-on-write leaves, each leaf's tuple lines are encoded once and kept
// with the leaf, and a frame is the header line, the leaves' blocks and
// the terminator, sent by reference in one vectored write. A commit
// rebuilds only the leaves its delta touches, and a rebuilt leaf's block
// is spliced from the blocks of the leaves it was merged from, so an
// `enumerate` at a new version formats O(|delta|) rows — the tuples added
// since the last one — not the result, and every client asking — at that
// version or at any other that shares the leaf — is sent the same bytes.
// The tuples are in lexicographic order too, whatever strategy maintains
// the query — the frame is a function of the result set, byte-identical
// across strategies — so a client keeping a mirror
// applies each later delta frame to the snapshot by one sorted merge. A
// subscriber that cannot keep up (bounded per-connection outbox) has
// frames dropped; on recovery it receives a single
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
	"strconv"

	"dyncq/internal/stream"
	"dyncq/pkg/dyncq"
)

// Frame terminator for multi-line frames.
const frameEnd = ".\n"

// Blocks every session sends by reference and nothing ever writes to.
var (
	frameEndBlock = []byte(frameEnd)
	okBeginLine   = []byte("ok begin\n")
)

// encodeDelta renders one DeltaEvent as a complete wire frame. It is
// called once per event; the broker hands the same slice to every
// subscriber, which is what makes cross-connection delta streams
// byte-identical.
//
//dyncq:hot
func encodeDelta(ev dyncq.DeltaEvent) []byte {
	size := len("delta ") + len(ev.Query) + 3*(1+20) + len(frameEnd) // three numbers of at most 20 digits
	for _, t := range ev.Added {
		size += stream.TupleLineLen(ev.Query, t)
	}
	for _, t := range ev.Removed {
		size += stream.TupleLineLen(ev.Query, t)
	}
	buf := make([]byte, 0, size)
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
		buf = stream.AppendTupleLine(buf, dyncq.OpInsert, ev.Query, t)
	}
	for _, t := range ev.Removed {
		buf = stream.AppendTupleLine(buf, dyncq.OpDelete, ev.Query, t)
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

// appendSnapshotHeader appends the part of an `enumerate` frame that
// belongs to one version to dst: the header line — and, for a Boolean
// query, which has no leaves, the empty tuple's line when the answer is
// yes.
//
//dyncq:hot
func appendSnapshotHeader(dst []byte, s *dyncq.QuerySnapshot) []byte {
	name := s.Name()
	b := dst[:] // a reslice: the hotalloc check reads the caller's buffer as sized
	b = append(b, "snapshot "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(s.Len()), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, s.Version(), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(s.Arity()), 10)
	b = append(b, '\n')
	if s.Arity() == 0 {
		for i := 0; i < s.Len(); i++ {
			b = stream.AppendTupleLine(b, dyncq.OpInsert, name, nil)
		}
	}
	return b
}

// appendReply appends `ok <verb> [<name> ]<n> <version>\n` to dst: the
// replies a closed-loop writer or poller waits on (committed, applied,
// count).
//
//dyncq:hot
func appendReply(dst []byte, verb, name string, n, version uint64) []byte {
	b := dst[:] // a reslice: the hotalloc check reads the caller's buffer as sized
	b = append(b, "ok "...)
	b = append(b, verb...)
	b = append(b, ' ')
	if name != "" {
		b = append(b, name...)
		b = append(b, ' ')
	}
	b = strconv.AppendUint(b, n, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, version, 10)
	b = append(b, '\n')
	return b
}

// appendAnswer appends `ok answer <name> <true|false> <version>\n` to dst.
//
//dyncq:hot
func appendAnswer(dst []byte, name string, yes bool, version uint64) []byte {
	b := dst[:] // a reslice: the hotalloc check reads the caller's buffer as sized
	b = append(b, "ok answer "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = strconv.AppendBool(b, yes)
	b = append(b, ' ')
	b = strconv.AppendUint(b, version, 10)
	b = append(b, '\n')
	return b
}

// appendErr appends `err <message>\n` to dst, the message collapsed onto
// one line — a CR or LF becomes a space — so it cannot break the
// line-oriented framing.
func appendErr(dst []byte, err error) []byte {
	b := append(dst, "err "...)
	msg := len(b)
	b = append(b, err.Error()...)
	for i := msg; i < len(b); i++ {
		if b[i] == '\r' || b[i] == '\n' {
			b[i] = ' '
		}
	}
	return append(b, '\n')
}
