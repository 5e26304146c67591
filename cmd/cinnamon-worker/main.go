// Command cinnamon-worker runs one chip of the scale-out cluster runtime:
// a worker process that owns a modular slice of every ciphertext's limbs
// (chip c owns limbs j with j % nChips == c) and executes its side of the
// paper's keyswitch collectives — absorbing broadcast digits for input
// broadcast, and computing scattered inner-product partials for
// aggregate-and-scatter.
//
// Workers are stateless between connections: the coordinator pushes
// parameters via handshake digest negotiation and evaluation keys lazily,
// so a worker can be restarted at any time and rejoin the cluster on the
// coordinator's next reconnect. A worker holds the keys its coordinator
// pushed and has not evicted; the coordinator's key cache is what bounds
// them.
//
// Usage:
//
//	cinnamon-worker -addr :9101 -logn 8 -levels 3 -seed 20260805
//
// The parameter flags must match the coordinator's (cinnamon-serve or
// cinnamon-cluster); mismatches are rejected at handshake by params
// digest. -pprof <addr> serves net/http/pprof on a listener of its own (off
// by default).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/telemetry"
	"cinnamon/internal/workloads"
)

func main() {
	addr := flag.String("addr", ":9101", "listen address")
	logN := flag.Int("logn", 8, "ring degree log2 (must match coordinator)")
	levels := flag.Int("levels", 3, "multiplicative levels (must match coordinator)")
	seed := flag.Int64("seed", 20260805, "parameter generation seed (must match coordinator)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, on its own listener (empty = no profiler)")
	flag.Parse()

	if *pprofAddr != "" {
		at, err := telemetry.StartPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error: -pprof:", err)
			os.Exit(1)
		}
		log.Printf("profiler on http://%s/debug/pprof/", at)
	}
	if err := run(*addr, *logN, *levels, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run(addr string, logN, levels int, seed int64) error {
	params, err := ckks.NewParameters(workloads.ServeParamsLiteral(logN, levels, seed))
	if err != nil {
		return err
	}
	w := cluster.NewWorker(params)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("worker up on %s (logN=%d levels=%d digest=%#x)", ln.Addr(), logN, levels, cluster.ParamsDigest(params))
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		go func(c net.Conn) {
			defer c.Close()
			if err := w.Serve(c); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("session %s: %v", c.RemoteAddr(), err)
			} else {
				log.Printf("session %s: closed", c.RemoteAddr())
			}
		}(conn)
	}
}
