package telemetry

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// StartPprof serves the runtime profiler (net/http/pprof, under
// /debug/pprof/) on a listener of its own at addr, so profiling a binary
// never shares a port, a mux or an admission queue with the traffic it
// serves. It returns the bound address once the listener is up; the listener
// lives until the process exits, like the binary it profiles.
func StartPprof(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go http.Serve(ln, mux) // returns only when the process ends
	return ln.Addr(), nil
}
