package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestStalledHeaderConnectionIsClosed is the slow-client case: a peer that
// sends half a request line and then nothing must be hung up on by the
// server, not held until the peer gives up. Both listeners are built by
// newHTTPServer, so its deadlines are checked first; the header deadline
// is then shortened on this copy only so the test need not wait out the
// production ten seconds.
func TestStalledHeaderConnectionIsClosed(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want the positive constant %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want the positive constant %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v / WriteTimeout %v set: they would cut a long ingest body", srv.ReadTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/ing")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The server closing the connection ends ReadAll cleanly; this side's
	// own deadline, fifty header timeouts away, ends it with an error.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept a connection with half a request line open for %v: %v", time.Since(start), err)
	}
}
