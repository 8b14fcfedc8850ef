// Command ggworker hosts one shard of a distributed Time Warp run. It
// listens for a coordinator (ggsim -workers, or anything driving
// ggpdes.RunDistributed), builds the shard engine the coordinator's
// init frame describes, executes forwarded operations in arrival
// order, and exits after a clean shutdown frame.
//
// A dropped connection does not end the process: the listener keeps
// accepting, and the next coordinator initializes the shard afresh.
//
// Usage:
//
//	ggworker [-listen 127.0.0.1:0] [-addr-file path]
//
// The bound address is printed on stdout ("ggworker: listening on
// ADDR") and, with -addr-file, written to a file the coordinator's
// launcher can poll — which is how ggsim discovers the ephemeral ports
// of the workers it spawns.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"ggpdes"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address to listen on; port 0 picks an ephemeral port")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ggworker: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ggworker: %v\n", err)
		os.Exit(1)
	}
	addr := ln.Addr().String()
	fmt.Printf("ggworker: listening on %s\n", addr)
	if *addrFile != "" {
		// Write-then-rename so a polling launcher never reads a torn
		// address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ggworker: %v\n", err)
			os.Exit(1)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			fmt.Fprintf(os.Stderr, "ggworker: %v\n", err)
			os.Exit(1)
		}
	}

	if err := ggpdes.ListenAndServeWorker(ln); err != nil {
		fmt.Fprintf(os.Stderr, "ggworker: %v\n", err)
		os.Exit(1)
	}
}
