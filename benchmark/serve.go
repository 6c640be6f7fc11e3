package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"graphite/internal/gnn"
	"graphite/internal/graph"
	"graphite/internal/sched"
	"graphite/internal/serve"
	"graphite/internal/telemetry"
)

// inferResponse mirrors the fields of the /v1/infer reply the benchmark
// checks.
type inferResponse struct {
	Vertices        []int32     `json:"vertices"`
	Logits          [][]float32 `json:"logits"`
	SnapshotVersion uint64      `json:"snapshot_version"`
}

// encodeInfer renders a /v1/infer body; timeout 0 leaves the server default.
func encodeInfer(ids []int32, timeout time.Duration) []byte {
	body := map[string]any{"vertices": ids}
	if timeout > 0 {
		body["timeout_ms"] = int(timeout / time.Millisecond)
	}
	data, _ := json.Marshal(body) // a map of ints and int slices cannot fail to marshal
	return data
}

// validateResponse checks what every served answer must satisfy: the request's
// vertices echoed in order, one finite classes-wide row per vertex, and the
// only snapshot this benchmark ever installs.
func validateResponse(resp *inferResponse, ids []int32, classes int) error {
	if len(resp.Vertices) != len(ids) || len(resp.Logits) != len(ids) {
		return fmt.Errorf("response has %d vertices and %d rows for %d requested", len(resp.Vertices), len(resp.Logits), len(ids))
	}
	for i, v := range ids {
		if resp.Vertices[i] != v {
			return fmt.Errorf("response echoes vertex %d at %d, want %d", resp.Vertices[i], i, v)
		}
		if err := finiteRow(resp.Logits[i], classes); err != nil {
			return fmt.Errorf("vertex %d: %w", v, err)
		}
	}
	if resp.SnapshotVersion != 1 {
		return fmt.Errorf("response from snapshot version %d, want 1", resp.SnapshotVersion)
	}
	return nil
}

func finiteRow(row []float32, classes int) error {
	if len(row) != classes {
		return fmt.Errorf("row has %d logits, want %d", len(row), classes)
	}
	for _, x := range row {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return fmt.Errorf("row holds %v", x)
		}
	}
	return nil
}

// httpClient is a keep-alive client limited to a fixed number of
// connections.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPClient(addr string, conns int) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &httpClient{c: &http.Client{Transport: tr}, base: "http://" + addr}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// infer posts one /v1/infer body and decodes the reply. A non-200 status is
// returned with a nil response and no error.
func (h *httpClient) infer(body []byte) (*inferResponse, int, error) {
	resp, err := h.c.Post(h.base+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return nil, resp.StatusCode, nil
	}
	var out inferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, resp.StatusCode, err
	}
	return &out, resp.StatusCode, nil
}

func (h *httpClient) get(path string) error {
	resp, err := h.c.Get(h.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return nil
}

// phase is what one stretch of generated traffic produced.
type phase struct {
	elapsed   time.Duration
	samples   []sample        // answered requests
	late      []time.Duration // open loop: how long after its due time each request was sent
	attempted int64
	rejected  int64 // 429: queue full or shed
	expired   int64 // 504 / deadline: not answered within the timeout of its due time
	failed    int64 // any other error, transport included
	vertices  int64 // vertices answered
	invalid   error // first answer that failed validation
}

func (p *phase) succeeded() int64 { return int64(len(p.samples)) }
func (p *phase) lost() int64      { return p.rejected + p.expired + p.failed }

func (p *phase) merge(q *phase) {
	p.samples = append(p.samples, q.samples...)
	p.late = append(p.late, q.late...)
	p.attempted += q.attempted
	p.rejected += q.rejected
	p.expired += q.expired
	p.failed += q.failed
	p.vertices += q.vertices
	if p.invalid == nil {
		p.invalid = q.invalid
	}
}

func (p *phase) String() string {
	return fmt.Sprintf("requests %d  succeeded %d  rejected %d  expired %d  failed %d  in %.2fs",
		p.attempted, p.succeeded(), p.rejected, p.expired, p.failed, p.elapsed.Seconds())
}

// closedLoop drives conns clients for dur: each sends its next request only
// after the previous one completed. Requests are taken in order from reqs
// (cycling), so request k is the same vertices on every commit whichever
// client sends it.
func closedLoop(hc *httpClient, reqs [][]int32, bodies [][]byte, next *atomic.Int64, conns int, dur time.Duration, classes int) (*phase, error) {
	parts := make([]phase, conns)
	start := time.Now()
	err := sched.ForEachThreadCtx(context.Background(), conns, func(thread int) {
		p := &parts[thread]
		for time.Since(start) < dur {
			k := int(next.Add(1)-1) % len(reqs)
			at := time.Since(start)
			resp, status, err := hc.infer(bodies[k])
			lat := time.Since(start) - at
			p.attempted++
			switch {
			case err != nil:
				p.failed++
			case status == http.StatusTooManyRequests:
				p.rejected++
			case status == http.StatusGatewayTimeout:
				p.expired++
			case status != http.StatusOK:
				p.failed++
			default:
				if verr := validateResponse(resp, reqs[k], classes); verr != nil && p.invalid == nil {
					p.invalid = verr
				}
				p.samples = append(p.samples, sample{at: at, lat: lat})
				p.vertices += int64(len(reqs[k]))
			}
		}
	})
	total := &phase{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total, err
}

// openLoop issues every arrival at its due time whatever the server is
// doing, through Server.Infer (an open loop at this rate cannot fit in two
// connections). A request's deadline is its due time plus timeout and its
// latency is stamped from the due time, so a stall is charged to every
// request it delays. With workers >= rate x timeout a worker is always free
// when an arrival falls due: everything due more than timeout ago has hit
// its deadline and returned.
func openLoop(srv *serve.Server, arr []arrival, workers int, timeout time.Duration, classes int) (*phase, error) {
	parts := make([]phase, workers)
	var next atomic.Int64
	start := time.Now()
	err := sched.ForEachThreadCtx(context.Background(), workers, func(thread int) {
		p := &parts[thread]
		for {
			i := int(next.Add(1) - 1)
			if i >= len(arr) {
				return
			}
			a := arr[i]
			if wait := a.due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			p.late = append(p.late, time.Since(start)-a.due)
			ctx, cancel := context.WithDeadline(context.Background(), start.Add(a.due+timeout))
			res, err := srv.Infer(ctx, []int32{a.vertex})
			cancel()
			lat := time.Since(start) - a.due
			p.attempted++
			switch {
			case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrShed):
				p.rejected++
			case errors.Is(err, context.DeadlineExceeded), err == nil && lat > timeout:
				p.expired++
			case err != nil:
				p.failed++
			default:
				if p.invalid == nil {
					switch {
					case res.Version != 1:
						p.invalid = fmt.Errorf("answer from snapshot version %d, want 1", res.Version)
					case res.Logits.Rows != 1:
						p.invalid = fmt.Errorf("answer has %d rows for 1 vertex", res.Logits.Rows)
					default:
						p.invalid = finiteRow(res.Logits.Row(0), classes)
					}
				}
				p.samples = append(p.samples, sample{at: a.due, lat: lat})
				p.vertices++
			}
		}
	})
	total := &phase{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total, err
}

// served is a built serve workload: inputs, model and a started server.
type served struct {
	in  *inputs
	net *gnn.Network
	srv *serve.Server
	hc  *httpClient
}

// setupServe builds graph, features, model and a server with the issue's
// fixed shape (server defaults otherwise: MaxBatch 64, linger 2 ms, QueueCap
// 256, tracing at its default rate), listening on a loopback port.
func setupServe(seed int64, sz sizing) (*served, error) {
	in, err := buildInputs(graph.Products, sz.serveVertices, serveDims, seed)
	if err != nil {
		return nil, err
	}
	net, err := gnn.NewNetwork(in.netCfg)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{
		Net: net, Graph: in.g, X: in.x,
		Workers: 1, Threads: threads, Fanouts: serveFanouts, Seed: serverSeed,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		shutdown(srv)
		return nil, err
	}
	return &served{in: in, net: net, srv: srv, hc: newHTTPClient(srv.Addr(), bulkConnections)}, nil
}

func (s *served) close() {
	s.hc.close()
	shutdown(s.srv)
}

func shutdown(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // nothing is in flight; a drain error cannot change the measurements already taken
}

// serveTel reads the server's own counters and histograms for the timed
// window: work done, time busy, time waited, operations failed.
func serveTel(r *result, tel *telemetry.Sink, window time.Duration) {
	ctr := func(c telemetry.Counter) float64 { return float64(tel.Counter(c)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	q := func(phase string, p float64) float64 { return millis(tel.Histogram(phase).Quantile(p)) }
	batches, requests := ctr(telemetry.CtrServeBatches), ctr(telemetry.CtrServeRequests)
	r.set("serve.batches", batches, "")
	r.set("serve.vertices_per_batch", ratio(ctr(telemetry.CtrServeVertices), batches), "")
	r.set("serve.queue_wait_p50_ms", q(telemetry.PhaseServeQueue, 0.50), "log2-bucket estimate")
	r.set("serve.queue_wait_p99_ms", q(telemetry.PhaseServeQueue, 0.99), "log2-bucket estimate")
	r.set("serve.batch_exec_p50_ms", q(telemetry.PhaseServeBatch, 0.50), "log2-bucket estimate")
	r.set("serve.busy_share", ratio(tel.Histogram(telemetry.PhaseServeBatch).Sum().Seconds(), window.Seconds()), "batch-execute time / window, 1 worker")
	r.set("serve.shed_share", ratio(ctr(telemetry.CtrServeShed), requests), "")
	r.set("serve.expired_share", ratio(ctr(telemetry.CtrServeExpired), requests), "")
	r.set("serve.degraded_share", ratio(ctr(telemetry.CtrServeDegraded), batches), "")
	r.set("serve.retries", ctr(telemetry.CtrServeRetries), "")
}
