// Command serverd runs the Southampton coordination server as a real HTTP
// service — the same min-rule override, special-command and MD5-beacon
// protocol the simulated stations speak, for driving with cmd/stationctl or
// curl.
//
// Usage:
//
//	serverd -addr :8090
//
// Endpoints (all GET — the deployed wget had no POST):
//
//	/state?station=S&state=N
//	/override?station=S
//	/upload?station=S&bytes=N
//	/special?station=S
//	/md5?station=S&artifact=A&sum=H
//	/status
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	flag.Parse()

	httpSrv := newHTTPServer(*addr, server.NewHandler(server.New()))
	fmt.Printf("serverd: Southampton server listening on %s\n", *addr)
	if err := httpSrv.ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "serverd:", err)
		os.Exit(1)
	}
}

// newHTTPServer wraps h in an http.Server whose timeouts keep a stalled or
// abandoned client from holding a socket forever: ReadHeaderTimeout bounds
// how long a connection may take to send its request header, IdleTimeout
// how long a keep-alive connection may sit between requests.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
