package ggpdes

import (
	"encoding/json"
	"net"
	"strings"
	"testing"

	"ggpdes/internal/dist"
	"ggpdes/internal/tw"
)

// The worker's protocol edge: a frame the worker cannot serve is
// answered with exactly one KindError frame and the connection keeps
// serving — the coordinator, not the worker, decides what is fatal.
func TestServeWorkerConnProtocolErrors(t *testing.T) {
	cfg := distCfg(PHOLD{LPsPerThread: 4})
	cfg.Seed = 1
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, err := cfg.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	initBody, err := json.Marshal(&dist.InitMsg{Config: cfgJSON, CacheKey: key, Shard: 0, Workers: 2, Lo: 0, Hi: 2})
	if err != nil {
		t.Fatal(err)
	}
	opBody := func(op dist.OpCode) []byte {
		body, err := json.Marshal(&dist.OpRequest{Op: op, Env: &tw.Envelope{}})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	batchBody, err := dist.AppendBatch(nil, &dist.BatchMsg{
		Env: &tw.Envelope{},
		Ops: []dist.OpRequest{{Op: dist.OpHasWork, Peer: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		initFirst bool // a valid KindInit precedes the bad frame
		kind      dist.MsgKind
		body      []byte
		wantErr   string
	}{
		{"op before init", false, dist.KindOp, opBody(dist.OpCheckInvariants), "op before init"},
		{"op batch before init", false, dist.KindOpsB, batchBody, "op batch before init"},
		{"undecodable init", false, dist.KindInit, []byte(`{"config":`), "decoding init"},
		{"init with a foreign cache key", false, dist.KindInit,
			[]byte(strings.Replace(string(initBody), key, "feedface", 1)), "coordinator sent feedface"},
		{"hot-path op as a single op frame", true, dist.KindOp, opBody(dist.OpDrain), "outside a batch frame"},
		{"control op in a batch frame", true, dist.KindOpsB, []byte{2, 0, 1, byte(dist.OpMetrics)}, "no binary form"}, // codec version 2, no envelope, one op
		{"undecodable op", true, dist.KindOp, []byte(`[]`), "decoding op"},
		{"retired kind byte", true, dist.MsgKind(6), []byte(`{}`), "unknown frame kind 6"},
		{"unknown kind byte", false, dist.MsgKind(200), nil, "unknown frame kind 200"},
		{"coordinator-only result", true, dist.KindResult, []byte(`{}`), "unexpected result frame"},
		{"coordinator-only binary result", false, dist.KindResultB, []byte{1, 0, 0}, "unexpected result_binary frame"},
		{"coordinator-only error", true, dist.KindError, []byte(`{"error":"x"}`), "unexpected error frame"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			local, remote := net.Pipe()
			served := make(chan error, 1)
			go func() {
				served <- ServeWorkerConn(remote)
				remote.Close()
			}()
			defer local.Close()
			// call sends one frame and reads the one frame answering it.
			call := func(kind dist.MsgKind, body []byte) (dist.MsgKind, []byte) {
				t.Helper()
				if _, err := dist.WriteRawMsg(local, kind, body); err != nil {
					t.Fatalf("sending %v: %v", kind, err)
				}
				rk, rbody, _, err := dist.ReadMsg(local)
				if err != nil {
					t.Fatalf("awaiting the answer to %v: %v", kind, err)
				}
				return rk, rbody
			}
			mustAck := func(kind dist.MsgKind, body []byte) {
				t.Helper()
				if rk, rbody := call(kind, body); rk != dist.KindResult {
					t.Fatalf("%v answered with %v %s, want a result", kind, rk, rbody)
				}
			}
			if c.initFirst {
				mustAck(dist.KindInit, initBody)
			}
			rk, rbody := call(c.kind, c.body)
			var em dist.ErrorMsg
			if rk != dist.KindError || json.Unmarshal(rbody, &em) != nil || !strings.Contains(em.Error, c.wantErr) {
				t.Fatalf("answered with %v %s, want a KindError mentioning %q", rk, rbody, c.wantErr)
			}
			// Exactly one frame answered it: the very next frame read is
			// the answer to the next request, and the worker still serves.
			mustAck(dist.KindInit, initBody)
			mustAck(dist.KindOp, opBody(dist.OpMetrics))
			mustAck(dist.KindShutdown, nil)
			if err := <-served; err != nil {
				t.Fatalf("ServeWorkerConn returned %v after a clean shutdown", err)
			}
		})
	}
}

// The steady-state round trip allocates nothing on either end: the
// client encodes into and decodes out of its own storage, and so does
// the worker (request, results, statistics, quiet set, outbox, frame
// buffers). One CallBatch of the scheduler's poll against a real shard
// over a net.Pipe; AllocsPerRun counts every goroutine's allocations,
// the worker's included.
func TestBatchRoundTripAllocatesNothing(t *testing.T) {
	cfg := distCfg(PHOLD{LPsPerThread: 4})
	cfg.Seed = 1
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	key, err := cfg.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	local, remote := net.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- ServeWorkerConn(remote)
		remote.Close()
	}()
	defer local.Close()
	c := dist.NewClient(local, nil)
	if err := c.Call(dist.KindInit, &dist.InitMsg{Config: cfgJSON, CacheKey: key, Workers: 2, Lo: 0, Hi: 2}, nil); err != nil {
		t.Fatal(err)
	}
	// The warm-up polls run the shard's start events to exhaustion
	// (nothing is ever injected) and grow every buffer to size; after it
	// every round trip is the idle poll of the coordinator's hot loop.
	m := &dist.BatchMsg{Env: &tw.Envelope{}, Ops: []dist.OpRequest{
		{Op: dist.OpDrain, Peer: 1}, {Op: dist.OpProcessBatch, Peer: 1}, {Op: dist.OpHasExecWork, Peer: 1},
	}}
	poll := func() {
		reply, err := c.CallBatch(m)
		if err != nil {
			t.Fatal(err)
		}
		*m.Env = *reply.Env
		if len(reply.Stats) != 2 || len(reply.Quiet) != 1 || len(reply.Results) != 3 {
			t.Fatalf("malformed reply: %+v", reply)
		}
	}
	for i := 0; i < 200; i++ {
		poll()
	}
	if allocs := testing.AllocsPerRun(200, poll); allocs != 0 {
		t.Errorf("one CallBatch round trip allocates %v objects, want 0", allocs)
	}
	if err := c.Call(dist.KindShutdown, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeWorkerConn returned %v after a clean shutdown", err)
	}
}
