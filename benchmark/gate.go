package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"graphite/internal/gnn"
	"graphite/internal/graph"
	"graphite/internal/locality"
	"graphite/internal/serve"
	"graphite/internal/tensor"
)

// Correctness tolerances, fixed by the issue that defined the benchmark.
const (
	tolImpl  = 1e-3 // between implementation variants (different summation order)
	tolServe = 1e-4 // full-fanout served rows against the full-batch basic rows
)

// checkRow reports whether got is a finite row within tol of want.
func checkRow(label string, got, want []float32, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: row has %d logits, want %d", label, len(got), len(want))
	}
	for j := range got {
		d := math.Abs(float64(got[j]) - float64(want[j]))
		if math.IsNaN(d) || math.IsInf(float64(got[j]), 0) || d > tol {
			return fmt.Errorf("%s: logit %d is %g, want %g (tolerance %g)", label, j, got[j], want[j], tol)
		}
	}
	return nil
}

// checkMatrix compares every row of got against the same row of want.
func checkMatrix(label string, got, want *tensor.Matrix, tol float64) error {
	if got.Rows != want.Rows {
		return fmt.Errorf("%s: %d rows, want %d", label, got.Rows, want.Rows)
	}
	for i := 0; i < got.Rows; i++ {
		if err := checkRow(fmt.Sprintf("%s row %d", label, i), got.Row(i), want.Row(i), tol); err != nil {
			return err
		}
	}
	return nil
}

// oracleRow computes one vertex's two-layer GCN logits in float64 straight
// from the definition — h = relu(Â·X·W0 + b0), out = Â·h·W1 + b1 with
// Â[v][u] = 1/sqrt(d_v·d_u) over N(v) ∪ {v} — sharing no code with the
// kernels, so a defect common to every implementation variant still trips
// the gate. g must already hold self loops.
func oracleRow(g *graph.CSR, x *tensor.Matrix, net *gnn.Network, v int) []float32 {
	norm := func(a, b int) float64 { return 1 / math.Sqrt(float64(g.Degree(a))*float64(g.Degree(b))) }
	layer := func(l *gnn.Layer, in []float64, relu bool) []float64 {
		out := make([]float64, l.Out())
		for j := range out {
			s := float64(l.B[j])
			for i, a := range in {
				s += a * float64(l.W.At(i, j))
			}
			if relu && s < 0 {
				s = 0
			}
			out[j] = s
		}
		return out
	}
	hidden := func(u int) []float64 {
		agg := make([]float64, x.Cols)
		for _, t := range g.Neighbors(u) {
			f := norm(u, int(t))
			for j, xv := range x.Row(int(t)) {
				agg[j] += f * float64(xv)
			}
		}
		return layer(net.Layers[0], agg, true)
	}
	agg := make([]float64, net.Layers[0].Out())
	for _, u := range g.Neighbors(v) {
		f := norm(v, int(u))
		for j, hv := range hidden(int(u)) {
			agg[j] += f * hv
		}
	}
	out64 := layer(net.Layers[1], agg, false)
	out := make([]float32, len(out64))
	for j, s := range out64 {
		out[j] = float32(s)
	}
	return out
}

// gateReference builds the small gate graph for the profile and returns its
// inputs, network, prepared workload and the ImplBasic full-batch logits,
// after anchoring eight of those rows to the float64 oracle.
func gateReference(profile graph.Profile, dims []int, seed int64, sz sizing) (*inputs, *gnn.Network, *gnn.Workload, *tensor.Matrix, error) {
	in, err := buildInputs(profile, sz.gateVertices, dims, seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	net, err := gnn.NewNetwork(in.netCfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	wl, err := gnn.NewWorkload(in.g, gnn.GCN, in.x, nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	st, err := gnn.InferContext(context.Background(), net, wl, gnn.RunOptions{Impl: gnn.ImplBasic, Threads: threads})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	basic := st.Logits()
	rng := rand.New(rand.NewSource(subSeed(seed, 4)))
	for i := 0; i < 8; i++ {
		v := rng.Intn(sz.gateVertices)
		if err := checkRow(fmt.Sprintf("gate: basic vs float64 oracle, vertex %d", v), basic.Row(v), oracleRow(wl.G, in.x, net, v), tolImpl); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return in, net, wl, basic, nil
}

// gateFullBatch checks, before any timing, that the Combined implementation
// (with and without the locality order the training workload uses) agrees
// with the oracle-anchored ImplBasic logits.
func gateFullBatch(profile graph.Profile, dims []int, seed int64, sz sizing) error {
	_, net, wl, basic, err := gateReference(profile, dims, seed, sz)
	if err != nil {
		return err
	}
	for _, order := range [][]int32{nil, locality.Reorder(wl.G)} {
		st, err := gnn.InferContext(context.Background(), net, wl,
			gnn.RunOptions{Impl: gnn.ImplCombined, Threads: threads, Order: order})
		if err != nil {
			return err
		}
		if err := checkMatrix("gate: combined vs basic", st.Logits(), basic, tolImpl); err != nil {
			return err
		}
	}
	return nil
}

// gateServe checks, before any timing, that a full-fanout Server answers 32
// seeded requests over real HTTP within tolServe of the oracle-anchored
// ImplBasic full-batch rows.
func gateServe(seed int64, sz sizing) error {
	in, net, _, basic, err := gateReference(graph.Products, serveDims, seed, sz)
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(serve.Config{Net: net, Graph: in.g, X: in.x, Threads: threads, Seed: serverSeed})
	if err != nil {
		return err
	}
	defer shutdown(srv)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	hc := newHTTPClient(srv.Addr(), 1)
	defer hc.close()
	rng := rand.New(rand.NewSource(subSeed(seed, 5)))
	for i := 0; i < 32; i++ {
		ids := make([]int32, 1+rng.Intn(4))
		for j := range ids {
			ids[j] = int32(rng.Intn(sz.gateVertices))
		}
		resp, status, err := hc.infer(encodeInfer(ids, 0))
		if err != nil || status != 200 {
			return fmt.Errorf("gate: request %d: status %d, error %v", i, status, err)
		}
		if err := validateResponse(resp, ids, basic.Cols); err != nil {
			return fmt.Errorf("gate: request %d: %w", i, err)
		}
		for j, v := range ids {
			if err := checkRow(fmt.Sprintf("gate: served vertex %d vs basic", v), resp.Logits[j], basic.Row(int(v)), tolServe); err != nil {
				return err
			}
		}
	}
	return nil
}
