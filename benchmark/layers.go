package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"graphite"
	"graphite/internal/compress"
	"graphite/internal/gnn"
	"graphite/internal/graph"
	"graphite/internal/kernels"
	"graphite/internal/locality"
	"graphite/internal/memsim"
	"graphite/internal/obsrv"
	"graphite/internal/perf"
	"graphite/internal/sched"
	"graphite/internal/simgnn"
	"graphite/internal/sparse"
	"graphite/internal/telemetry"
	"graphite/internal/tensor"
)

// commonLayers emits the per-layer metrics every workload reports: the
// generated graph, the host's denominators and the scheduler's dispatch cost.
// It returns the measured STREAM bandwidth.
func (r *run) commonLayers(in *inputs) float64 {
	r.layers.set("graph.generate_s", in.genTime.Seconds(), "")
	r.layers.set("graph.edges", float64(in.g.NumEdges()), "")

	llc := llcBytes()
	bytes := r.sz.streamBytes
	if bytes == 0 {
		bytes = 4 * llc
	}
	if bytes == 0 {
		bytes = 256 << 20
	}
	triad := streamTriad(bytes, 3)
	r.layers.set("host.nproc", float64(runtime.NumCPU()), "")
	r.layers.set("host.llc_mb", float64(llc)/(1<<20), "")
	r.layers.set("host.stream_triad_gbps", triad, fmt.Sprintf("arrays %.0f MB in total, LLC %.0f MB", float64(bytes)/(1<<20), float64(llc)/(1<<20)))

	const chunks = 1 << 19
	t0 := time.Now()
	sched.Dynamic(chunks, 1, threads, func(int, int) {})
	r.layers.set("sched.dispatch_ns_per_chunk", float64(time.Since(t0))/chunks, fmt.Sprintf("%d empty chunks", chunks))
	return triad
}

// serveLayers is the traced part of a serve workload: the staged replay of
// batches through the sampled path's public functions, then the outside-timed
// measurements of the serve, tensor, telemetry and obsrv layers.
func (r *run) serveLayers(s *served, batches [][]int32) error {
	r.commonLayers(s.in)
	ctx := context.Background()
	opts := gnn.RunOptions{Threads: threads}
	g, x, net := s.in.g, s.in.x, s.net

	// Staged replay: each batch once through the whole un-spanned call and once
	// stage by stage under a `batch` span, from the same rng state.
	var whole, staged time.Duration
	var vertices, dups, srcs, edges int
	var first []*gnn.Block
	for op, ids := range batches {
		var ref, out *tensor.Matrix
		var blocks []*gnn.Block
		runWhole := func() (err error) {
			t0 := time.Now()
			ref, err = gnn.InferVerticesContext(ctx, net, g, x, ids, serveFanouts, rand.New(rand.NewSource(int64(op))), opts)
			whole += time.Since(t0)
			return err
		}
		runStaged := func() (err error) {
			root := r.rec.begin(op, -1, "batch")
			sp := r.rec.begin(op, root, "sample")
			blocks, err = gnn.SampleBlocks(g, net.Kind, ids, serveFanouts, rand.New(rand.NewSource(int64(op))))
			r.rec.end(sp)
			if err != nil {
				return err
			}
			sp = r.rec.begin(op, root, "gather")
			feats := gnn.GatherRows(x, blocks[0].SrcIDs, threads)
			r.rec.end(sp)
			sp = r.rec.begin(op, root, "forward")
			out, err = gnn.SampledForwardContext(ctx, net, blocks, feats, opts)
			r.rec.end(sp)
			r.rec.end(root)
			staged += r.rec.spans[root].dur()
			return err
		}
		// Whichever runs second finds the batch's rows in cache, so alternate.
		order := []func() error{runWhole, runStaged}
		if op%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, f := range order {
			if err := f(); err != nil {
				return err
			}
		}
		if err := checkMatrix("staged replay vs InferVerticesContext", out, ref, tolServe); err != nil {
			return err
		}

		if first == nil {
			first = blocks
		}
		seen := make(map[int32]bool, len(ids))
		for _, v := range ids {
			if seen[v] {
				dups++
			}
			seen[v] = true
		}
		vertices += len(ids)
		srcs += len(blocks[0].SrcIDs)
		for _, blk := range blocks {
			edges += len(blk.SubG.Col)
		}
	}
	nb := float64(len(batches))
	sample := sumDur(r.rec.durationsByName("sample", "batch"))
	gather := sumDur(r.rec.durationsByName("gather", "batch"))
	forward := sumDur(r.rec.durationsByName("forward", "batch"))
	note := fmt.Sprintf("%d batches, %d vertices", len(batches), vertices)
	r.layers.set("gnn.sample_us_per_batch", micros(sample)/nb, note)
	r.layers.set("gnn.sample_ns_per_edge", float64(sample)/float64(edges), "")
	r.layers.set("gnn.gather_us_per_batch", micros(gather)/nb, "")
	r.layers.set("gnn.sampled_forward_us_per_batch", micros(forward)/nb, "")
	r.layers.set("gnn.block_src_per_vertex", float64(srcs)/float64(vertices), "layer-0 source rows gathered per requested vertex")
	r.layers.set("gnn.block_edges_per_vertex", float64(edges)/float64(vertices), "sampled edges, all layers")
	r.layers.set("gnn.dup_vertex_share", float64(dups)/float64(vertices), "requested vertices already in their batch")
	r.layers.set("gnn.stage_residual_share", float64(whole-sample-gather-forward)/float64(whole), "whole un-spanned call minus the three stages")
	r.layers.set("bench.trace_overhead_share", float64(staged-whole)/float64(whole), "spanned staged replay against the whole un-spanned call")

	// The update GEMM at the served block shape: layer 0 of the first batch.
	blk, l0 := first[0], net.Layers[0]
	a, z := tensor.NewMatrix(blk.NumDst, l0.In()), tensor.NewMatrix(blk.NumDst, l0.Out())
	a.FillRandom(rand.New(rand.NewSource(1)), 1)
	const gemmReps = 20
	t0 := time.Now()
	for i := 0; i < gemmReps; i++ {
		tensor.MatMul(z, a, l0.W, threads)
	}
	r.layers.set("tensor.gemm_block_gflops", float64(gemmReps*tensor.GEMMFLOPs(a.Rows, a.Cols, z.Cols))/float64(time.Since(t0)),
		fmt.Sprintf("%dx%dx%d", a.Rows, a.Cols, z.Cols))

	// The serve layer at concurrency 1, timed from outside: direct call
	// against HTTP round trip, at 1 vertex (waits out the linger) and at 64
	// (seals on arrival).
	timeEach := func(f func(i int) error) (time.Duration, error) {
		ds := make([]time.Duration, r.sz.outsideReps)
		for i := range ds {
			t0 := time.Now()
			if err := f(i); err != nil {
				return 0, err
			}
			ds[i] = time.Since(t0)
		}
		return medianDur(ds), nil
	}
	pool := uniformRequests(subSeed(r.seed, 9), r.sz.outsideReps, bulkVerticesPerRequest, g.NumVertices())
	var med [4]time.Duration
	for k, f := range []func(i int) error{
		func(i int) error { _, err := s.srv.Infer(ctx, pool[i][:1]); return err },
		func(i int) error { return httpOK(s.hc.infer(encodeInfer(pool[i][:1], r.sz.timeout))) },
		func(i int) error { _, err := s.srv.Infer(ctx, pool[i]); return err },
		func(i int) error { return httpOK(s.hc.infer(encodeInfer(pool[i], r.sz.timeout))) },
	} {
		d, err := timeEach(f)
		if err != nil {
			return err
		}
		med[k] = d
	}
	note = fmt.Sprintf("median of %d sequential requests", r.sz.outsideReps)
	r.layers.set("serve.infer_direct_us_v1", micros(med[0]), note)
	r.layers.set("serve.http_rtt_us_v1", micros(med[1]), note)
	r.layers.set("serve.http_overhead_us_v1", micros(med[1]-med[0]), "HTTP round trip minus direct call, 1 vertex")
	r.layers.set("serve.http_overhead_us_v64", micros(med[3]-med[2]), "HTTP round trip minus direct call, 64 vertices")

	// What one span, one request trace and one flight-recorder offer cost.
	reps := r.sz.microReps
	sink := telemetry.New(0)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		sink.Begin(telemetry.PhaseSample).End()
	}
	r.layers.set("telemetry.span_ns", float64(time.Since(t0))/float64(reps), "Sink.Begin + End")
	traces := make([]telemetry.TraceData, reps)
	t0 = time.Now()
	for i := range traces {
		tr := telemetry.NewTrace(telemetry.NewTraceID(), telemetry.SpanID{}, telemetry.PhaseServeE2E)
		for _, name := range []string{telemetry.PhaseAdmission, telemetry.PhaseServeQueue, telemetry.PhaseSeal, telemetry.PhaseServeBatch} {
			tr.AddSpan(name, t0, time.Microsecond)
		}
		traces[i] = tr.Finish("", "")
	}
	r.layers.set("telemetry.trace_us_per_request", micros(time.Since(t0))/float64(reps), "NewTrace + 4 AddSpan + Finish")
	fr := obsrv.NewFlightRecorder(obsrv.FlightRecorderConfig{})
	t0 = time.Now()
	for _, td := range traces {
		fr.Record(td)
	}
	r.layers.set("obsrv.flightrec_record_ns", float64(time.Since(t0))/float64(reps), "FlightRecorder.Record")

	scrapes := make([]time.Duration, 10)
	for i := range scrapes {
		t0 := time.Now()
		if err := s.hc.get("/metrics"); err != nil {
			return err
		}
		scrapes[i] = time.Since(t0)
	}
	r.layers.set("obsrv.scrape_ms", millis(medianDur(scrapes)), "median of 10 GET /metrics on the live server")
	return nil
}

func httpOK(_ *inferResponse, status int, err error) error {
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d", status)
	}
	return err
}

// decomposedPass runs the Basic layer as its public pieces — kernels.BasicCtx
// → tensor.MatMul → bias (+ReLU) — under a `pass` span with one `layerK` span
// per layer. It returns the logits plus layer 1's input and aggregation for
// the variant measurements.
func decomposedPass(rec *recorder, op int, net *gnn.Network, wl *gnn.Workload, kopt kernels.Options) (logits, h1, a1 *tensor.Matrix, err error) {
	n := wl.G.NumVertices()
	root := rec.begin(op, -1, "pass")
	h := wl.X
	for k, layer := range net.Layers {
		ls := rec.begin(op, root, fmt.Sprintf("layer%d", k))
		a := tensor.NewMatrix(n, layer.In())
		sp := rec.begin(op, ls, "aggregate")
		err = kernels.BasicCtx(context.Background(), a, wl.G, wl.Factors, kernels.NewDenseSource(h), kopt)
		rec.end(sp)
		if err != nil {
			return nil, nil, nil, err
		}
		z := tensor.NewMatrix(n, layer.Out())
		sp = rec.begin(op, ls, "gemm")
		tensor.MatMul(z, a, layer.W, threads)
		rec.end(sp)
		sp = rec.begin(op, ls, "bias")
		if k < net.NumLayers()-1 {
			tensor.AddBiasReLU(z, layer.B, threads)
		} else {
			tensor.AddBiasRange(z, layer.B, 0, n)
		}
		rec.end(sp)
		rec.end(ls)
		if k == 1 {
			h1, a1 = h, a
		}
		h = z
	}
	rec.end(root)
	return h, h1, a1, nil
}

// Capacity, in feature rows, of the LRU that locality.HitRate models: about
// an L2 of 128-wide rows.
const hitRateCapacity = 2048

// fullBatchLayers is the traced part of a full-batch workload: the decomposed
// Basic layer under spans, its compressed / SpMM / transposed variants, the
// Timings the whole gnn calls return, and — on fullbatch_infer — the
// simulated-machine counts. epochs and wall are the timed window's epochs on
// fullbatch_train and nil on fullbatch_infer.
func (r *run) fullBatchLayers(in *inputs, epochs []graphite.EpochResult, wall []time.Duration) error {
	triad := r.commonLayers(in)
	train := epochs != nil
	ctx := context.Background()
	net, err := gnn.NewNetwork(in.netCfg)
	if err != nil {
		return err
	}
	wl, err := gnn.NewWorkload(in.g, gnn.GCN, in.x, in.labels)
	if err != nil {
		return err
	}
	n, numEdges := wl.G.NumVertices(), wl.G.NumEdges()

	t0 := time.Now()
	sparse.Factors(wl.G, sparse.NormGCN)
	r.layers.set("sparse.factors_ms", millis(time.Since(t0)), "")

	kopt := kernels.Options{Threads: threads, PrefetchDistance: 4}
	if train {
		t0 = time.Now()
		kopt.Order = locality.Reorder(wl.G)
		r.layers.set("locality.reorder_ms", millis(time.Since(t0)), "")
		reordered, err := locality.HitRate(wl.G, kopt.Order, hitRateCapacity)
		if err != nil {
			return err
		}
		identity, err := locality.HitRate(wl.G, locality.Identity(n), hitRateCapacity)
		if err != nil {
			return err
		}
		r.layers.set("locality.hit_rate_gain", reordered-identity, fmt.Sprintf("%.4f reordered - %.4f identity, LRU of %d rows", reordered, identity, hitRateCapacity))
	}

	// The whole gnn calls: reference logits and the Timings they return.
	st, err := gnn.InferContext(ctx, net, wl, gnn.RunOptions{Impl: gnn.ImplBasic, Threads: threads, Order: kopt.Order})
	if err != nil {
		return err
	}
	basic := st.Logits()
	if train {
		var fused, backward, other []time.Duration
		for i, e := range epochs {
			fused, backward = append(fused, e.Timings.Fused), append(backward, e.Timings.Backward)
			other = append(other, wall[i]-e.Timings.Total())
		}
		note := fmt.Sprintf("median of %d timed epochs", len(epochs))
		r.layers.set("gnn.forward_fused_ms", millis(medianDur(fused)), note)
		r.layers.set("gnn.backward_ms", millis(medianDur(backward)), note)
		r.layers.set("gnn.epoch_other_ms", millis(medianDur(other)), "epoch - Timings.Total(): loss + optimizer; "+note)
	} else {
		r.layers.set("gnn.forward_aggregate_ms", millis(st.Timings.Aggregate), "ImplBasic, 1 pass")
		r.layers.set("gnn.forward_update_ms", millis(st.Timings.Update), "ImplBasic, 1 pass")
		wl.CompressedInput(threads)
		var fused []time.Duration
		for i := 0; i < 2; i++ {
			cst, err := gnn.InferContext(ctx, net, wl, gnn.RunOptions{Impl: gnn.ImplCombined, Threads: threads})
			if err != nil {
				return err
			}
			fused = append(fused, cst.Timings.Fused)
		}
		r.layers.set("gnn.forward_fused_ms", millis(medianDur(fused)), "ImplCombined, median of 2 passes")
	}

	// The decomposed pass: once un-spanned, then under the recorder.
	t0 = time.Now()
	if _, _, _, err := decomposedPass(nil, 0, net, wl, kopt); err != nil {
		return err
	}
	unspanned := time.Since(t0)
	var h1, a1 *tensor.Matrix
	for op := 0; op < r.sz.replayPasses; op++ {
		var logits *tensor.Matrix
		if logits, h1, a1, err = decomposedPass(r.rec, op, net, wl, kopt); err != nil {
			return err
		}
		if err := checkMatrix("decomposed pass vs ImplBasic", logits, basic, tolImpl); err != nil {
			return err
		}
	}
	med := func(name, parent string) time.Duration { return medianDur(r.rec.durationsByName(name, parent)) }
	note := fmt.Sprintf("median of %d spanned passes", r.sz.replayPasses)
	aggL0, aggL1 := med("aggregate", "layer0"), med("aggregate", "layer1")
	gemmL0, gemmL1 := med("gemm", "layer0"), med("gemm", "layer1")
	l0, l1 := net.Layers[0], net.Layers[1]
	r.layers.set("kernels.agg_l0_ms", millis(aggL0), fmt.Sprintf("width %d, %s", l0.In(), note))
	r.layers.set("kernels.agg_l1_ms", millis(aggL1), fmt.Sprintf("width %d, %s", l1.In(), note))
	r.layers.set("tensor.gemm_l0_ms", millis(gemmL0), fmt.Sprintf("%dx%dx%d", n, l0.In(), l0.Out()))
	r.layers.set("tensor.gemm_l1_ms", millis(gemmL1), fmt.Sprintf("%dx%dx%d", n, l1.In(), l1.Out()))
	flops := tensor.GEMMFLOPs(n, l0.In(), l0.Out()) + tensor.GEMMFLOPs(n, l1.In(), l1.Out())
	r.layers.set("tensor.gemm_gflops", float64(flops)/float64(gemmL0+gemmL1), "both layers")
	// Bytes are computed from shapes, not measured: per edge one source row
	// plus column index and factor, per vertex one output row.
	aggBytes := float64(numEdges)*float64(l1.In()*4+8) + float64(n)*float64(l1.In()*4)
	gbps := aggBytes / float64(aggL1)
	r.layers.set("kernels.agg_medges_per_s", float64(numEdges)/aggL1.Seconds()/1e6, "layer 1")
	r.layers.set("kernels.agg_gbps_computed", gbps, "layer 1, bytes computed from shapes")
	r.layers.set("kernels.agg_bw_share", gbps/triad, "of host.stream_triad_gbps")
	r.layers.set("bench.trace_overhead_share", float64(med("pass", "")-unspanned)/float64(unspanned), "spanned decomposed pass against the un-spanned one")

	// Variants of layer 1's aggregation on the same input, as children of one
	// `variants` span.
	op := r.sz.replayPasses
	root := r.rec.begin(op, -1, "variants")
	timed := func(name string, f func() error) (time.Duration, error) {
		sp := r.rec.begin(op, root, name)
		err := f()
		r.rec.end(sp)
		return r.rec.spans[sp].dur(), err
	}
	var hc *compress.Matrix
	d, _ := timed("compress", func() error { hc = compress.FromDense(h1, threads); return nil })
	r.layers.set("compress.from_dense_ms", millis(d), fmt.Sprintf("%dx%d", h1.Rows, h1.Cols))
	r.layers.set("compress.traffic_ratio", float64(hc.TotalTrafficBytes())/float64(int64(h1.Rows)*hc.UncompressedRowBytes()), "compressed / dense bytes of layer 1's input")
	out := tensor.NewMatrix(n, l1.In())
	d, err = timed("aggregate-compressed", func() error {
		return kernels.BasicCtx(ctx, out, wl.G, wl.Factors, kernels.NewCompressedSource(hc), kopt)
	})
	if err != nil {
		return err
	}
	if err := checkMatrix("compressed aggregation vs dense", out, a1, tolImpl); err != nil {
		return err
	}
	r.layers.set("kernels.agg_l1_compressed_ms", millis(d), "")
	d, _ = timed("spmm", func() error { sparse.SpMM(out, wl.G, wl.Factors, h1, threads); return nil })
	if err := checkMatrix("SpMM vs Basic aggregation", out, a1, tolImpl); err != nil {
		return err
	}
	r.layers.set("sparse.spmm_l1_ms", millis(d), fmt.Sprintf("width %d", l1.In()))
	if train {
		// The write side: Âᵀ aggregation and the two transposed GEMMs at layer
		// 1's backward shapes, with the logits standing in for dLogits.
		gT, fT := wl.Transposed()
		if _, err := timed("aggregate-transposed", func() error {
			return kernels.BasicCtx(ctx, out, gT, fT, kernels.NewDenseSource(a1), kernels.Options{Threads: threads, PrefetchDistance: 4})
		}); err != nil {
			return err
		}
		dW, da := tensor.NewMatrix(l1.In(), l1.Out()), tensor.NewMatrix(n, l1.In())
		d, _ = timed("gemm-transA", func() error { tensor.MatMulTransA(dW, a1, basic, threads); return nil })
		r.layers.set("tensor.gemm_transa_ms", millis(d), fmt.Sprintf("(%dx%d)T x %dx%d", n, l1.In(), n, l1.Out()))
		d, _ = timed("gemm-transB", func() error { tensor.MatMulTransB(da, basic, l1.W, threads); return nil })
		r.layers.set("tensor.gemm_transb_ms", millis(d), fmt.Sprintf("%dx%d x (%dx%d)T", n, l1.Out(), l1.In(), l1.Out()))
		// Max / mean per-thread busy time of the dynamically scheduled
		// aggregation on the heavy-tailed graph.
		sink := telemetry.New(0)
		topt := kopt
		topt.Tel = sink
		if _, err := timed("aggregate-accounted", func() error {
			return kernels.BasicCtx(ctx, out, wl.G, wl.Factors, kernels.NewDenseSource(h1), topt)
		}); err != nil {
			return err
		}
		r.layers.set("sched.imbalance_twitter", sink.Snapshot().BusyImbalance(), "max / mean per-thread busy time")
	}
	r.rec.end(root)
	if train {
		return nil
	}
	return r.simulatedLayers()
}

// simulatedLayers replays inference on the simulated machine, with the cache
// scaling internal/bench uses so the scaled-down graph dwarfs the caches the
// way the paper's graphs dwarf a 38.5 MB L3. Exact counts: they pin the
// evidence the paper's techniques rest on and must repeat bit for bit.
func (r *run) simulatedLayers() error {
	const cores, feature = 8, 128
	cfg, err := graph.ProfileConfig(graph.Products, r.sz.simVertices)
	if err != nil {
		return err
	}
	cfg.Seed = subSeed(r.seed, 1)
	g, err := graph.Generate(cfg)
	if err != nil {
		return err
	}
	g = g.AddSelfLoops()
	mc := memsim.DefaultConfig(cores)
	mc.L1Bytes, mc.L2Bytes, mc.L3Bytes = 8<<10, 128<<10, cores*176<<10
	layers := []simgnn.Layer{{Fin: feature, Fout: feature}, {Fin: feature, Fout: feature}}
	for _, v := range []struct {
		variant simgnn.Variant
		metric  string
	}{
		{simgnn.VarDistGNN, "simgnn.infer_cycles_distgnn"},
		{simgnn.VarCombined, "simgnn.infer_cycles_combined"},
		{simgnn.VarFusedDMA, "simgnn.infer_cycles_fused_dma"},
	} {
		res, err := simgnn.SimulateInference(g, layers, v.variant, simgnn.Options{Cores: cores, Machine: mc})
		if err != nil {
			return err
		}
		r.layers.set(v.metric, float64(res.Cycles), fmt.Sprintf("products @ %d vertices", r.sz.simVertices))
		switch v.variant {
		case simgnn.VarDistGNN:
			r.layers.set("perf.memory_bound_share_distgnn", perf.FromStats(res.Stats).MemoryBound, "")
		case simgnn.VarCombined:
			r.layers.set("memsim.dram_lines_combined", float64(res.Stats.DRAMReadLines+res.Stats.DRAMWriteLines), "read + written")
		}
	}
	return nil
}
