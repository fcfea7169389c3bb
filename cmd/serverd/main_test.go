package main

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"repro/internal/server"
)

func TestNewHTTPServerBoundsClients(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", server.NewHandler(server.New()))
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want a bound", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want a bound", srv.IdleTimeout)
	}

	l, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	resp, err := http.Get("http://" + l.Addr().String() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /status = %d %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
}
