package server

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"dyncq/internal/cq"
	"dyncq/internal/dyndb"
	"dyncq/internal/eval"
	"dyncq/internal/workload"
	"dyncq/pkg/dyncq"
)

// e2eClients sizes the subscriber fleet of the byte-identity test; CI's
// deep lane raises it (go test ./internal/server -run E2E -server.e2eclients=6).
var e2eClients = flag.Int("server.e2eclients", 3, "concurrent subscriber connections in the e2e tests")

// startTCPServer boots a real listener on a kernel-assigned port.
func startTCPServer(t *testing.T, opt Options) (*Server, string) {
	t.Helper()
	srv := New(opt)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

// TestE2EByteIdenticalDeltaStreams is acceptance criterion (a): N
// subscribers on separate TCP connections receive byte-identical
// per-batch delta streams, and the stream matches an oracle replay
// (eval.Evaluate over an independently maintained database).
func TestE2EByteIdenticalDeltaStreams(t *testing.T) {
	_, addr := startTCPServer(t, Options{})
	queryText := "Q(y) :- E(x,y), T(y)"
	q := cq.MustParse(queryText)

	admin, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if err := admin.Register("q", queryText); err != nil {
		t.Fatal(err)
	}

	// All subscribers join before the first update: their streams
	// cover the full history from version 0.
	nSubs := *e2eClients
	subs := make([]*Client, nSubs)
	for i := range subs {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Subscribe("q"); err != nil {
			t.Fatal(err)
		}
		subs[i] = c
	}

	rng := rand.New(rand.NewSource(4242))
	db := dyndb.New()
	stream := workload.RandomStream(rng, q.Schema(), 15, 900, 0.35)
	var finalVersion uint64
	for i := 0; i < len(stream); i += 60 {
		end := i + 60
		if end > len(stream) {
			end = len(stream)
		}
		if _, finalVersion, err = admin.ApplyBatch(stream[i:end]); err != nil {
			t.Fatal(err)
		}
		for _, u := range stream[i:end] {
			if _, err := db.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Each subscriber drains its stream to the final version and
	// concatenates the raw frame bytes.
	type drained struct {
		raw    []byte
		frames int
		state  map[string]bool
	}
	results := make(chan drained, nSubs)
	errs := make(chan error, nSubs)
	for _, c := range subs {
		go func(c *Client) {
			var d drained
			d.state = make(map[string]bool)
			timeout := time.After(30 * time.Second)
			for {
				select {
				case delta, ok := <-c.Deltas():
					if !ok {
						errs <- fmt.Errorf("delta stream closed at frame %d", d.frames)
						return
					}
					if delta.Resync {
						errs <- fmt.Errorf("unexpected resync: %+v", delta)
						return
					}
					d.raw = append(d.raw, delta.Raw...)
					d.frames++
					for _, tup := range delta.Added {
						d.state[fmt.Sprint(tup)] = true
					}
					for _, tup := range delta.Removed {
						delete(d.state, fmt.Sprint(tup))
					}
					if delta.Version == finalVersion {
						results <- d
						return
					}
				case <-timeout:
					errs <- fmt.Errorf("subscriber stuck at frame %d waiting for version %d", d.frames, finalVersion)
					return
				}
			}
		}(c)
	}
	var all []drained
	for range subs {
		select {
		case d := <-results:
			all = append(all, d)
		case err := <-errs:
			t.Fatal(err)
		}
	}

	// Byte-identical across connections.
	for i := 1; i < len(all); i++ {
		if !bytes.Equal(all[0].raw, all[i].raw) {
			t.Fatalf("subscriber %d stream (%d bytes, %d frames) differs from subscriber 0 (%d bytes, %d frames)",
				i, len(all[i].raw), all[i].frames, len(all[0].raw), all[0].frames)
		}
	}
	// One frame per committed version, even empty ones.
	if all[0].frames != int(finalVersion) {
		t.Fatalf("subscriber 0 saw %d frames over %d committed versions", all[0].frames, finalVersion)
	}

	// Oracle replay: the delta-replayed state equals a from-scratch
	// evaluation of the query on the replayed database.
	want := eval.Evaluate(q, db).Tuples()
	if len(want) != len(all[0].state) {
		t.Fatalf("replayed state has %d tuples, oracle %d", len(all[0].state), len(want))
	}
	for _, tup := range want {
		if !all[0].state[fmt.Sprint([]dyncq.Value(tup))] {
			t.Fatalf("oracle tuple %v missing from replayed state", tup)
		}
	}

	// And matches what the server itself enumerates.
	snap, err := admin.Enumerate("q")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Tuples) != len(want) {
		t.Fatalf("server enumerates %d tuples, oracle %d", len(snap.Tuples), len(want))
	}
}

// TestE2ESnapshotReaderDoesNotBlockWriter is acceptance criterion (b)
// at the wire level: a client that requests an enumeration and then
// stalls without reading it holds a pinned MVCC snapshot server-side —
// and a concurrent ApplyBatch on another connection completes inside a
// strict time bound anyway.
func TestE2ESnapshotReaderDoesNotBlockWriter(t *testing.T) {
	_, addr := startTCPServer(t, Options{})
	queryText := "Q(x,y) :- E(x,y)"
	q := cq.MustParse(queryText)

	writer, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := writer.Register("q", queryText); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if _, _, err := writer.ApplyBatch(workload.RandomStream(rng, q.Schema(), 60, 3000, 0.1)); err != nil {
		t.Fatal(err)
	}
	_, preVersion, err := writer.Count("q")
	if err != nil {
		t.Fatal(err)
	}

	// Raw reader connection: request the enumeration, then sleep
	// without reading a byte of the response.
	reader, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if _, err := reader.Write([]byte("enumerate q\n")); err != nil {
		t.Fatal(err)
	}
	// Give the server ample time to pin the snapshot (the version
	// check below fails loudly if it somehow hadn't).
	time.Sleep(300 * time.Millisecond)

	start := time.Now()
	if _, _, err := writer.ApplyBatch(workload.RandomStream(rng, q.Schema(), 60, 500, 0.5)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("ApplyBatch took %v while an unread enumeration was pending: snapshot readers must not block writers", elapsed)
	}

	// The stalled reader now drains its response: the snapshot is
	// pinned at the pre-batch version.
	time.Sleep(1 * time.Second) // the "reader sleeps mid-iteration" phase
	rc := NewClient(reader)     // demux the already-pending snapshot frame
	// NewClient wraps the same conn; the pending frame is a snapshot
	// response to the enumerate we sent manually, so round-trip
	// plumbing sees it as an unsolicited response. Read it directly.
	f, ok := <-rc.resp
	if !ok {
		t.Fatal("reader connection closed before snapshot arrived")
	}
	var n int
	var v uint64
	var arity int
	if _, err := fmt.Sscanf(f.line, "snapshot q %d %d %d", &n, &v, &arity); err != nil {
		t.Fatalf("malformed snapshot header %q: %v", f.line, err)
	}
	if v != preVersion {
		t.Fatalf("snapshot pinned at version %d, want pre-batch version %d", v, preVersion)
	}
	if n != f.lines {
		t.Fatalf("snapshot header promises %d tuples, frame carries %d", n, f.lines)
	}
}
