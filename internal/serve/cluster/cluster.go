// Package cluster turns independent ggserved replicas into a fleet
// with one logical content-addressed result cache. Replicas share a
// static member list; a consistent-hash ring over Config.CacheKey
// assigns every key an owning replica; non-owners first try to fill
// from the owner's cache (GET /v2/cluster/result/{key}) and otherwise
// delegate the run to it (POST /v2/cluster/jobs), so each distinct
// config simulates at most once fleet-wide. Because runs are
// deterministic (DESIGN.md §10), a peer's cached result is exactly
// the result a local run would have produced — peering is sound, not
// just probably-fine.
//
// The package deliberately does not import internal/serve: it speaks
// the /v2 wire shapes directly (raw spec bytes in, Results out), so
// serve can depend on it without a cycle.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"ggpdes"
	"ggpdes/internal/telemetry"
)

// ErrPeerLost marks a peer that could not be reached or died mid-
// request: connection refused, reset, or EOF before a response. The
// serving layer treats it as an environmental failure worth failing
// over from, not a job failure.
var ErrPeerLost = errors.New("cluster: peer unreachable")

// ErrNotCached is returned by FetchResult when the peer is healthy
// but does not hold the key.
var ErrNotCached = errors.New("cluster: result not cached on peer")

// RemoteError is a typed failure a peer returned through the /v2
// error envelope: the peer was reachable and answered, but refused or
// failed the request.
type RemoteError struct {
	// Code is the envelope's machine-readable error code (e.g.
	// "queue_full", "draining", "deadline").
	Code string
	// Message is the human-readable detail.
	Message string
	// Retryable mirrors the envelope flag: the same request may
	// succeed later (or elsewhere).
	Retryable bool
	// HTTPStatus is the response status the envelope rode on.
	HTTPStatus int
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("cluster: peer error %s (HTTP %d): %s", e.Code, e.HTTPStatus, e.Message)
}

// Options configures a Cluster.
type Options struct {
	// Self is this replica's advertised host:port — the address peers
	// dial it on. It must appear in Peers.
	Self string
	// Peers is the full static member list, including Self, in any
	// order (every replica sorts it into the same ring).
	Peers []string
	// VNodes is the number of ring points per member (0 = 64).
	VNodes int
	// Registry receives the cluster.* metrics (nil = a fresh one, but
	// pass the serving registry so /metrics exposes the plane).
	Registry *telemetry.Registry
	// Client performs peer HTTP requests (nil = a dedicated client
	// with no global timeout; every call is bounded by its context).
	Client *http.Client
	// FillTimeout bounds one cache-fill GET (0 = 2s). Delegated runs
	// are bounded only by the job context — they last as long as the
	// simulation does.
	FillTimeout time.Duration
	// PingTimeout bounds one health-probe GET (0 = 500ms).
	PingTimeout time.Duration
}

// Peer is one remote replica.
type Peer struct {
	addr string
	base string
}

// Addr returns the peer's host:port.
func (p *Peer) Addr() string { return p.addr }

// PeerHealth is one peer's slice of a Probe result.
type PeerHealth struct {
	Addr  string `json:"addr"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// Cluster is this replica's view of the fleet: the ring, the peer
// clients, and the cluster.* telemetry.
type Cluster struct {
	self  string
	ring  *ring
	peers []*Peer // every member except self, ring order
	hc    *http.Client

	fillTimeout time.Duration
	pingTimeout time.Duration

	fills       *telemetry.Counter
	fillMisses  *telemetry.Counter
	fillsServed *telemetry.Counter
	delegated   *telemetry.Counter
	remoteJobs  *telemetry.Counter
	failovers   *telemetry.Counter
	spills      *telemetry.Counter
	peersUp     *telemetry.Gauge
}

// New builds the fleet view. The member list is Peers ∪ {Self};
// passing a list without Self still works (it is added), so
// `-peers a,b,c` can be copied verbatim to every replica.
func New(opts Options) *Cluster {
	members := append([]string{opts.Self}, opts.Peers...)
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	hc := opts.Client
	if hc == nil {
		hc = &http.Client{}
	}
	c := &Cluster{
		self:        opts.Self,
		ring:        newRing(members, opts.VNodes),
		hc:          hc,
		fillTimeout: opts.FillTimeout,
		pingTimeout: opts.PingTimeout,
		fills:       reg.Counter(MetricFills),
		fillMisses:  reg.Counter(MetricFillMisses),
		fillsServed: reg.Counter(MetricFillsServed),
		delegated:   reg.Counter(MetricDelegated),
		remoteJobs:  reg.Counter(MetricRemoteJobs),
		failovers:   reg.Counter(MetricFailovers),
		spills:      reg.Counter(MetricSpills),
		peersUp:     reg.Gauge(MetricPeersConnected),
	}
	if c.fillTimeout <= 0 {
		c.fillTimeout = 2 * time.Second
	}
	if c.pingTimeout <= 0 {
		c.pingTimeout = 500 * time.Millisecond
	}
	for _, m := range c.ring.members {
		if m != c.self {
			c.peers = append(c.peers, &Peer{addr: m, base: "http://" + m})
		}
	}
	return c
}

// Self returns this replica's advertised address.
func (c *Cluster) Self() string { return c.self }

// Size returns the member count, including self.
func (c *Cluster) Size() int { return len(c.ring.members) }

// Peers returns the remote members in ring order.
func (c *Cluster) Peers() []*Peer { return c.peers }

// Owner resolves the key's owning member. self is true when this
// replica owns it (peer is nil in that case).
func (c *Cluster) Owner(key string) (peer *Peer, self bool) {
	m := c.ring.owner(key)
	if m == c.self || m == "" {
		return nil, true
	}
	for _, p := range c.peers {
		if p.addr == m {
			return p, false
		}
	}
	return nil, true
}

// FetchResult runs the fill protocol against one peer: a bounded GET
// of the peer's cache entry for key. It records a fill or a fill
// miss; an unreachable peer is both a miss and ErrPeerLost.
func (c *Cluster) FetchResult(ctx context.Context, p *Peer, key string) (*ggpdes.Results, error) {
	fctx, cancel := context.WithTimeout(ctx, c.fillTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet,
		p.base+"/v2/cluster/result/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fillMisses.Inc()
		return nil, fmt.Errorf("%w: %s: %v", ErrPeerLost, p.addr, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode == http.StatusNotFound {
		c.fillMisses.Inc()
		return nil, ErrNotCached
	}
	if resp.StatusCode != http.StatusOK {
		c.fillMisses.Inc()
		return nil, remoteError(resp)
	}
	var res ggpdes.Results
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		c.fillMisses.Inc()
		return nil, fmt.Errorf("%w: %s: decoding fill: %v", ErrPeerLost, p.addr, err)
	}
	c.fills.Inc()
	return &res, nil
}

// RunJob delegates a job to its owning peer: POST the raw /v2 JobSpec
// body and block until the peer finishes it. The call lasts as long
// as the remote simulation — it is bounded only by ctx. A peer that
// dies mid-run surfaces as ErrPeerLost; a peer that answers with the
// error envelope surfaces as *RemoteError.
func (c *Cluster) RunJob(ctx context.Context, p *Peer, spec []byte) (*ggpdes.Results, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		p.base+"/v2/cluster/jobs", bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: %s: %v", ErrPeerLost, p.addr, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, remoteError(resp)
	}
	var body struct {
		Results *ggpdes.Results `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Results == nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// A response truncated mid-body is the owner dying, same as a
		// refused dial.
		return nil, fmt.Errorf("%w: %s: decoding delegated result: %v", ErrPeerLost, p.addr, err)
	}
	c.delegated.Inc()
	return body.Results, nil
}

// Probe pings every peer concurrently and reports per-peer health,
// updating the cluster.peers.connected gauge. Each ping is bounded by
// PingTimeout under ctx.
func (c *Cluster) Probe(ctx context.Context) []PeerHealth {
	out := make([]PeerHealth, len(c.peers))
	var wg sync.WaitGroup
	for i, p := range c.peers {
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			out[i] = PeerHealth{Addr: p.addr, OK: true}
			pctx, cancel := context.WithTimeout(ctx, c.pingTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet,
				p.base+"/v2/cluster/ping", nil)
			if err == nil {
				var resp *http.Response
				if resp, err = c.hc.Do(req); err == nil {
					drainClose(resp.Body)
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("HTTP %d", resp.StatusCode)
					}
				}
			}
			if err != nil {
				out[i] = PeerHealth{Addr: p.addr, Error: err.Error()}
			}
		}(i, p)
	}
	wg.Wait()
	up := 0
	for _, h := range out {
		if h.OK {
			up++
		}
	}
	c.peersUp.Set(float64(up))
	return out
}

// NoteFailover records a delegation abandoned because the owner died;
// the caller is about to resume the job locally from the shared
// checkpoint directory.
func (c *Cluster) NoteFailover() { c.failovers.Inc() }

// NoteSpill records a delegation the owner pushed back on (queue full
// or draining); the caller is about to run the job itself.
func (c *Cluster) NoteSpill() { c.spills.Inc() }

// NoteRemoteJob records a job this replica is running on a peer's
// behalf (the server side of RunJob).
func (c *Cluster) NoteRemoteJob() { c.remoteJobs.Inc() }

// NoteFillServed records a fill request answered from the local cache
// (the server side of FetchResult).
func (c *Cluster) NoteFillServed() { c.fillsServed.Inc() }

// remoteError decodes a /v2 error envelope into a *RemoteError,
// falling back to the raw body when the envelope doesn't parse.
func remoteError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var env struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			Retryable bool   `json:"retryable"`
		} `json:"error"`
	}
	re := &RemoteError{HTTPStatus: resp.StatusCode}
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		re.Code = env.Error.Code
		re.Message = env.Error.Message
		re.Retryable = env.Error.Retryable
	} else {
		re.Code = "internal"
		re.Message = string(bytes.TrimSpace(raw))
	}
	return re
}

// drainClose consumes and closes a response body so the underlying
// connection can be reused.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	_ = body.Close()
}
