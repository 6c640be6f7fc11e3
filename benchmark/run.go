package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"graphite"
	"graphite/internal/gnn"
	"graphite/internal/graph"
	"graphite/internal/serve"
	"graphite/internal/tensor"
)

// run is one invocation of one workload: set-up, correctness gate, warm-up,
// a timed window of `seconds` and — when traced — the per-layer measurements
// after it, which replay a fixed number of operations.
type run struct {
	wl      workloadSpec
	seed    int64
	seconds time.Duration
	traced  bool
	sz      sizing
	log     io.Writer

	e2e, layers       *result
	rec               *recorder
	attempted, failed int64
}

func newRun(wl workloadSpec, seed int64, seconds time.Duration, traced bool, sz sizing, log io.Writer) *run {
	r := &run{wl: wl, seed: seed, seconds: seconds, traced: traced, sz: sz, log: log, e2e: newResult(), layers: newResult()}
	if traced {
		r.rec = newRecorder()
	}
	return r
}

// execute runs the workload and validates the emitted metric set. Any
// correctness failure is an error: the caller exits non-zero without metrics.
func (r *run) execute() error {
	runtime.GOMAXPROCS(threads)
	var err error
	switch r.wl.name {
	case wlBulk:
		err = r.runServe(false)
	case wlPoint:
		err = r.runServe(true)
	case wlInfer:
		err = r.runInfer()
	case wlTrain:
		err = r.runTrain()
	}
	if err != nil {
		return fmt.Errorf("%s: %w", r.wl.name, err)
	}
	if err := r.e2e.finish(endToEnd, r.wl.bit); err != nil {
		return err
	}
	if r.traced {
		return r.layers.finish(perLayer, r.wl.bit)
	}
	return nil
}

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.log, format+"\n", args...) }

// repeatSetup builds the workload reps times (once when traced), keeping the
// last build, and returns the median build time: one set-up is a single
// sample of a few seconds and its noise would otherwise be the noise of
// setup_s.
func repeatSetup[T any](r *run, build func() (T, error), discard func(T)) (T, error) {
	reps := r.sz.setupReps
	if r.traced {
		reps = 1
	}
	var keep T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(keep)
			var none T
			keep = none
			runtime.GC() // so discarded builds do not pile up under peak_rss_mb
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return keep, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		keep = v
	}
	r.e2e.set("setup_s", median(secs), fmt.Sprintf("median of %d set-ups", reps))
	return keep, nil
}

// emitWindow derives the end-to-end metrics every workload shares from the
// usage readings around the timed window.
func (r *run) emitWindow(before, after usage, elapsed time.Duration, ops, vertices int64) {
	r.e2e.set("vertices_per_s", float64(vertices)/elapsed.Seconds(), fmt.Sprintf("%d vertices in %.2fs", vertices, elapsed.Seconds()))
	r.e2e.set("cpu_ms_per_op", millis(after.cpu-before.cpu)/float64(ops), fmt.Sprintf("%d ops", ops))
	r.e2e.set("peak_rss_mb", after.peakRSSMB, "")
	if !r.traced {
		return
	}
	n := float64(ops)
	r.layers.set("runtime.alloc_kb_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024/n, "")
	r.layers.set("runtime.mallocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/n, "")
	r.layers.set("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), "")
	r.layers.set("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "")
	r.layers.set("bench.samples", n, "")
}

// runServe runs serve_bulk_closed (open=false) or serve_point_open.
func (r *run) runServe(open bool) error {
	if err := gateServe(r.seed, r.sz); err != nil {
		return err
	}
	classes := serveDims[len(serveDims)-1]
	n := r.sz.serveVertices
	// All traffic is generated up front: the closed loop's request pool with
	// its encoded bodies, or the open loop's warm-up and timed schedules.
	var reqs [][]int32
	var bodies [][]byte
	var warmArr, timedArr []arrival
	if open {
		warmArr = poissonZipfSchedule(subSeed(r.seed, 7), r.sz.openRate, r.sz.serveWarmup, n, zipfS)
		timedArr = poissonZipfSchedule(subSeed(r.seed, 8), r.sz.openRate, r.seconds, n, zipfS)
	} else {
		reqs = uniformRequests(subSeed(r.seed, 6), 4096, bulkVerticesPerRequest, n)
		for _, ids := range reqs {
			bodies = append(bodies, encodeInfer(ids, r.sz.timeout))
		}
	}

	s, err := repeatSetup(r, func() (*served, error) {
		s, err := setupServe(r.seed, r.sz)
		if err != nil {
			return nil, err
		}
		// First requests are part of set-up: connections, the first batch's
		// allocations and whatever else the program initialises lazily.
		for i := 0; i < 8 && err == nil; i++ {
			if open {
				_, err = s.srv.Infer(context.Background(), []int32{warmArr[i%len(warmArr)].vertex})
			} else {
				_, _, err = s.hc.infer(bodies[len(bodies)-1-i])
			}
		}
		if err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, (*served).close)
	if err != nil {
		return err
	}
	defer s.close()

	traffic := func(arr []arrival, next *atomic.Int64, dur time.Duration) (*phase, error) {
		if open {
			return openLoop(s.srv, arr, r.sz.openWorkers, r.sz.timeout, classes)
		}
		return closedLoop(s.hc, reqs, bodies, next, bulkConnections, dur, classes)
	}
	// The warm-up takes its requests from the middle of the pool so the timed
	// window always starts at request 0, however many the warm-up completed.
	var warmNext, timedNext atomic.Int64
	warmNext.Store(int64(len(reqs) / 2))
	warm, err := traffic(warmArr, &warmNext, r.sz.serveWarmup)
	if err != nil {
		return err
	}
	r.logf("warm-up (discarded): %v", warm)
	if r.traced {
		s.srv.Tel().Reset() // so the server's own counters cover the timed window only
	}
	runtime.GC()
	before := readUsage()
	timed, err := traffic(timedArr, &timedNext, r.seconds)
	after := readUsage()
	if err != nil {
		return err
	}
	r.logf("timed window:        %v", timed)
	if timed.invalid != nil {
		return fmt.Errorf("timed answer failed validation: %w", timed.invalid)
	}
	if timed.succeeded() == 0 {
		return fmt.Errorf("no request succeeded in the timed window")
	}
	r.attempted, r.failed = timed.attempted, timed.lost()
	r.logf("fail_share %.6f  (%d of %d attempted: rejected, shed, expired, errored or transport-failed)",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)

	// The open loop's window is its schedule; the closed loop's is the time
	// its clients actually ran.
	elapsed := timed.elapsed
	tailP := 0.95 // ~100 bulk requests/s leave too few samples beyond a per-segment p99
	if open {
		elapsed, tailP = r.seconds, 0.99
	}
	const segments = 3
	qs, minCount := segmentQuantiles(timed.samples, elapsed, segments, 0.50, tailP)
	if beyond := float64(minCount) * (1 - tailP); beyond < float64(r.sz.minTailBeyond) {
		return fmt.Errorf("smallest segment has %d samples: %.1f beyond p%.0f, need %d", minCount, beyond, tailP*100, r.sz.minTailBeyond)
	}
	note := fmt.Sprintf("median of %d segments, >= %d samples each", segments, minCount)
	r.e2e.set("latency_p50_ms", qs[0], note)
	r.e2e.set("latency_tail_ms", qs[1], fmt.Sprintf("p%.0f, %s", tailP*100, note))
	r.emitWindow(before, after, elapsed, timed.succeeded(), timed.vertices)
	if !r.traced {
		return nil
	}

	serveTel(r.layers, s.srv.Tel(), elapsed)
	if !open {
		return r.serveLayers(s, reqs[:r.sz.replayBatches])
	}
	late := make([]float64, len(timed.late))
	for i, d := range timed.late {
		late[i] = millis(d)
	}
	r.layers.set("bench.generator_late_p99_ms", quantile(late, 0.99), fmt.Sprintf("p50 %.3f ms", quantile(late, 0.50)))
	// Point batches are a sixth the size of bulk ones; replay more of them.
	return r.serveLayers(s, lingerBatches(timedArr, serve.DefaultMaxLinger, serve.DefaultMaxBatch, 4*r.sz.replayBatches))
}

// fullBatchWindow runs op back to back until the window is spent and emits
// the end-to-end metrics. 6 to 25 samples support nothing above the upper
// quartile, so that is the tail.
func (r *run) fullBatchWindow(vertices int, op func() error) error {
	before := readUsage()
	start := time.Now()
	var lats []float64
	for time.Since(start) < r.seconds {
		// Collect between operations, outside the latency stamp: otherwise the
		// high-water mark depends on where in a pass the concurrent collector
		// happens to finish, and peak_rss_mb is bimodal (+-8%) on one commit.
		runtime.GC()
		t0 := time.Now()
		if err := op(); err != nil {
			return err
		}
		lats = append(lats, millis(time.Since(t0)))
	}
	elapsed := time.Since(start)
	after := readUsage()
	ops := int64(len(lats))
	r.attempted = ops
	note := fmt.Sprintf("%d samples", ops)
	r.e2e.set("latency_p50_ms", median(lats), note)
	r.e2e.set("latency_tail_ms", quantile(lats, 0.75), "p75, "+note)
	r.emitWindow(before, after, elapsed, ops, ops*int64(vertices))
	return nil
}

// runInfer runs fullbatch_infer: Engine{Impl: Combined}.InferContext back to
// back on the products graph.
func (r *run) runInfer() error {
	if err := gateFullBatch(graph.Products, serveDims, r.seed, r.sz); err != nil {
		return err
	}
	type built struct {
		in    *inputs
		eng   *graphite.Engine
		w     *graphite.Workload
		first *tensor.Matrix
	}
	ctx := context.Background()
	b, err := repeatSetup(r, func() (built, error) {
		in, err := buildInputs(graph.Products, r.sz.serveVertices, serveDims, r.seed)
		if err != nil {
			return built{}, err
		}
		eng, err := graphite.NewEngine(graphite.Config{Model: graphite.GCN, Dims: serveDims, Impl: graphite.Combined, Threads: threads, Seed: in.netCfg.Seed})
		if err != nil {
			return built{}, err
		}
		w, err := eng.NewWorkload(in.g, in.x, nil)
		if err != nil {
			return built{}, err
		}
		// The first pass is part of set-up: it builds the compressed input.
		first, err := eng.InferContext(ctx, w)
		return built{in, eng, w, first}, err
	}, func(built) {})
	if err != nil {
		return err
	}
	// Anchor the full-size output to the float64 oracle on a few vertices, then
	// hold every timed pass to the first one.
	net, err := gnn.NewNetwork(b.in.netCfg)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(subSeed(r.seed, 4)))
	for i := 0; i < 4; i++ {
		v := rng.Intn(r.sz.serveVertices)
		if err := checkRow(fmt.Sprintf("combined vs float64 oracle, vertex %d", v), b.first.Row(v), oracleRow(b.w.G, b.in.x, net, v), tolImpl); err != nil {
			return err
		}
	}
	err = r.fullBatchWindow(r.sz.serveVertices, func() error {
		out, err := b.eng.InferContext(ctx, b.w)
		if err != nil {
			return err
		}
		return checkMatrix("timed pass vs first pass", out, b.first, tolImpl)
	})
	if err != nil || !r.traced {
		return err
	}
	return r.fullBatchLayers(b.in, nil, nil)
}

// runTrain runs fullbatch_train: Engine{Combined, LocalityOrder} → NewTrainer
// → Epoch back to back on the twitter graph.
func (r *run) runTrain() error {
	if err := gateFullBatch(graph.Twitter, trainDims, r.seed, r.sz); err != nil {
		return err
	}
	type built struct {
		in        *inputs
		tr        *graphite.Trainer
		firstLoss float64
	}
	b, err := repeatSetup(r, func() (built, error) {
		in, err := buildInputs(graph.Twitter, r.sz.trainVertices, trainDims, r.seed)
		if err != nil {
			return built{}, err
		}
		eng, err := graphite.NewEngine(graphite.Config{Model: graphite.GCN, Dims: trainDims, Impl: graphite.Combined, LocalityOrder: true, Threads: threads, Seed: in.netCfg.Seed})
		if err != nil {
			return built{}, err
		}
		w, err := eng.NewWorkload(in.g, in.x, in.labels)
		if err != nil {
			return built{}, err
		}
		tr, err := eng.NewTrainer(w)
		if err != nil {
			return built{}, err
		}
		// The first epoch is part of set-up: compressed input, transposed graph.
		first, err := tr.Epoch()
		return built{in, tr, first.Loss}, err
	}, func(built) {})
	if err != nil {
		return err
	}
	var epochs []graphite.EpochResult
	var wall []time.Duration
	err = r.fullBatchWindow(r.sz.trainVertices, func() error {
		t0 := time.Now()
		res, err := b.tr.Epoch()
		if err != nil {
			return err
		}
		if math.IsNaN(res.Loss) || math.IsInf(res.Loss, 0) {
			return fmt.Errorf("epoch %d: loss is %v", len(epochs)+2, res.Loss)
		}
		epochs, wall = append(epochs, res), append(wall, time.Since(t0))
		return nil
	})
	if err != nil {
		return err
	}
	last := epochs[len(epochs)-1].Loss
	r.logf("training loss %.6f at the first epoch, %.6f at the last of %d", b.firstLoss, last, len(epochs)+1)
	if !(last < b.firstLoss) {
		return fmt.Errorf("training loss did not fall: first epoch %.6f, last %.6f", b.firstLoss, last)
	}
	if !r.traced {
		return nil
	}
	return r.fullBatchLayers(b.in, epochs, wall)
}
