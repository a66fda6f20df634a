package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dyncq/internal/server"
	"dyncq/pkg/dyncq"
)

// cmdServe implements `dyncq serve`: a long-lived TCP server owning one
// workspace and speaking the line protocol of internal/server (see the
// package doc of internal/server/wire.go for the grammar). Readers are
// MVCC — an enumeration held open by one client never blocks another
// client's commit — and subscriptions stream per-commit delta frames.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("dyncq serve", flag.ExitOnError)
	addr := fs.String("addr", ":7421", "TCP listen address")
	var queries queryFlags
	fs.Var(&queries, "query", "pre-registered query, repeatable; 'name=Q(x) :- …' or bare query text (auto-named q1, q2, …). Clients can register more at runtime.")
	outbox := fs.Int("outbox", 0, "per-connection outgoing frame queue bound (0 = default 256); a subscriber that falls further behind is resynced, never waited on")
	writeTimeout := fs.Duration("write-timeout", 0, "deadline of one write, a burst of the frames queued for a connection (0 = default 10s, negative = none); a stuck peer is disconnected")
	if err := fs.Parse(args); err != nil {
		return err
	}
	named, err := queries.parse()
	if err != nil {
		return err
	}
	srv := server.New(server.Options{
		OutboxFrames: *outbox,
		WriteTimeout: *writeTimeout,
	})
	ws := srv.Workspace()
	for _, nq := range named {
		h, err := ws.RegisterQuery(nq.name, nq.q, dyncq.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("query %-8s %s  [%s]\n", h.Name()+":", h.Query(), h.Strategy())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("dyncq serve: listening on %s\n", l.Addr())

	// SIGINT/SIGTERM drain live sessions (bounded by DrainTimeout)
	// instead of dropping them mid-frame.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "dyncq serve: %v, shutting down\n", s)
		srv.Close()
	}()

	err = srv.Serve(l)
	if err == server.ErrClosed {
		return nil
	}
	return err
}

// cmdClient implements `dyncq client`: an interactive line client for a
// running server. It is a transparent pipe — stdin lines go to the
// server verbatim, everything the server sends (responses, snapshot
// frames, subscribed delta frames) is printed as it arrives — so the
// full wire grammar is available, including subscriptions whose frames
// interleave with the prompt.
func cmdClient(args []string) error {
	fs := flag.NewFlagSet("dyncq client", flag.ExitOnError)
	addr := fs.String("addr", "localhost:7421", "server address to dial")
	timeout := fs.Duration("dial-timeout", 5*time.Second, "connect timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	conn, err := net.DialTimeout("tcp", *addr, *timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Fprintf(os.Stderr, "connected to %s (try: register q Q(y) :- E(x,y), T(y) | apply +E(1,2) | count q | subscribe q | quit)\n", conn.RemoteAddr())

	// Server → stdout until the connection closes (the server's "bye"
	// reply to quit, a server shutdown, or a dropped link).
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(os.Stdout, conn)
		done <- err
	}()

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 64<<10), 16<<20)
	for in.Scan() {
		line := in.Text()
		if _, err := io.WriteString(conn, line+"\n"); err != nil {
			break
		}
		if strings.TrimSpace(line) == "quit" {
			break
		}
	}
	if err := in.Err(); err != nil {
		return err
	}
	// Let the server's farewell (or pending frames) flush before closing.
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
	return nil
}
