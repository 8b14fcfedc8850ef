// Distributed mode: -workers N shards the run across worker
// processes. With -worker-addrs the workers are externally started
// ggworker processes; without it ggsim spawns N copies of itself in
// the internal -worker-serve mode, which runs the same serve loop as
// ggworker on an ephemeral port. Either way the coordinator side is
// ggpdes.RunDistributed, and the Results are byte-identical to the
// in-process run (modulo the dist.* wire metrics).
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"

	"ggpdes"
)

// addrPrefix is the line both ggworker and -worker-serve print once
// listening; the spawning parent scans child stdout for it to learn
// the ephemeral port.
const addrPrefix = "ggworker: listening on "

// serveWorkerShard is the internal -worker-serve mode: ggworker's
// serve loop inside the ggsim binary, so -workers needs no second
// binary on PATH.
func serveWorkerShard() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", addrPrefix, ln.Addr())
	return ggpdes.ListenAndServeWorker(ln)
}

// distWorkerCount resolves how many workers the flag pair names.
func distWorkerCount(workers int, addrs string) int {
	if addrs != "" {
		return len(strings.Split(addrs, ","))
	}
	return workers
}

// runDistributed connects (or spawns) the workers and drives the
// sharded run.
func runDistributed(ctx context.Context, cfg ggpdes.Config, workers int, addrList string) (*ggpdes.Results, error) {
	var addrs []string
	if addrList != "" {
		for _, a := range strings.Split(addrList, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("-worker-addrs has an empty entry")
			}
			addrs = append(addrs, a)
		}
		if workers > 0 && workers != len(addrs) {
			return nil, fmt.Errorf("-workers %d but -worker-addrs names %d workers", workers, len(addrs))
		}
	} else {
		spawned, stop, err := spawnWorkers(workers)
		if err != nil {
			return nil, err
		}
		defer stop()
		addrs = spawned
	}
	opts := ggpdes.DistOptions{
		Workers: len(addrs),
		Dial: func(shard int) (io.ReadWriteCloser, error) {
			return net.Dial("tcp", addrs[shard])
		},
	}
	return ggpdes.RunDistributed(ctx, cfg, opts)
}

// spawnWorkers re-executes this binary n times in -worker-serve mode
// and collects the listen addresses the children print. The returned
// stop function reaps the children: after a clean run the coordinator
// has already asked them to shut down and they exit on their own;
// anything still alive (failed run) is killed.
func spawnWorkers(n int) ([]string, func(), error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("locating own binary to spawn workers: %w", err)
	}
	var cmds []*exec.Cmd
	stop := func() {
		for _, cmd := range cmds {
			done := make(chan struct{})
			go func(c *exec.Cmd) { c.Wait(); close(done) }(cmd)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				cmd.Process.Kill()
				<-done
			}
		}
	}
	var addrs []string
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-worker-serve")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			stop()
			return nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, nil, fmt.Errorf("spawning worker %d: %w", i, err)
		}
		cmds = append(cmds, cmd)
		sc := bufio.NewScanner(out)
		addr := ""
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, addrPrefix) {
				addr = strings.TrimPrefix(line, addrPrefix)
				break
			}
		}
		if addr == "" {
			cmd.Process.Kill()
			stop()
			return nil, nil, fmt.Errorf("worker %d exited before announcing its address", i)
		}
		// Keep draining stdout so the child never blocks on a full pipe.
		//ggvet:allow(bounded by the child process: the copy returns on pipe EOF when the worker exits, and stop() reaps the worker via Kill+Wait)
		go io.Copy(io.Discard, out)
		addrs = append(addrs, addr)
	}
	return addrs, stop, nil
}
