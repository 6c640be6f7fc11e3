package main

import (
	"time"

	"graphite"
	"graphite/internal/gnn"
	"graphite/internal/graph"
	"graphite/internal/tensor"
)

// sizing holds every constant that fixes how much work a run does. full is
// what BENCHMARK.json measures; the tests run the same code at tiny.
type sizing struct {
	serveVertices int // products profile, both serve workloads and fullbatch_infer
	trainVertices int // twitter profile
	gateVertices  int // correctness-gate graph
	simVertices   int // simulated-machine graph

	setupReps     int           // set-ups per untraced run; setup_s is their median
	serveWarmup   time.Duration // discarded serve traffic before the window
	timeout       time.Duration // per request, from its due time; unanswered by then is a failure
	openRate      float64       // open-loop arrivals per second
	openWorkers   int           // generator goroutines; >= rate x timeout keeps the loop open
	minTailBeyond int           // samples required beyond the tail percentile, per segment

	replayBatches int   // served batches in the traced replay
	replayPasses  int   // spanned full-batch passes in the traced replay
	outsideReps   int   // sequential requests per outside-timed serve metric
	microReps     int   // iterations of the telemetry/obsrv micro-measurements
	streamBytes   int64 // STREAM footprint; 0 = 4 x LLC
}

var fullSizing = sizing{
	serveVertices: 100_000,
	trainVertices: 40_000,
	gateVertices:  2_000,
	simVertices:   4_000,
	setupReps:     3,
	serveWarmup:   1500 * time.Millisecond,
	timeout:       100 * time.Millisecond,
	openRate:      4000,
	openWorkers:   512,
	minTailBeyond: 10,
	replayBatches: 128,
	replayPasses:  2,
	outsideReps:   100,
	microReps:     20_000,
}

// Served-request shape, fixed by the issue that defined the benchmark.
const (
	bulkVerticesPerRequest = 64
	bulkConnections        = 2
	zipfS                  = 1.1
	featureSparsity        = 0.5
	// serverSeed is the program's own sampling seed. It is a constant: the
	// program under test receives generated inputs, never the benchmark seed.
	serverSeed = 1
)

var (
	serveDims    = []int{100, 256, 47}
	trainDims    = []int{256, 128, 47}
	serveFanouts = []int{15, 10}
)

// subSeed derives the k-th independent input seed from the run seed.
func subSeed(seed, k int64) int64 { return seed*1_000_003 + k }

// inputs are the generated inputs of one workload: graph, features, labels
// and the model configuration. Everything is a function of the seed.
type inputs struct {
	g       *graph.CSR
	x       *tensor.Matrix
	labels  []int32
	netCfg  gnn.Config
	genTime time.Duration
}

func buildInputs(profile graph.Profile, vertices int, dims []int, seed int64) (*inputs, error) {
	cfg, err := graph.ProfileConfig(profile, vertices)
	if err != nil {
		return nil, err
	}
	cfg.Seed = subSeed(seed, 1)
	t0 := time.Now()
	g, err := graph.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{g: g, genTime: time.Since(t0)}
	in.x = graphite.RandomFeatures(vertices, dims[0], featureSparsity, subSeed(seed, 2))
	// Labels are a function of the features (arg-max of the first `classes`
	// columns), so training has something to learn and the loss check means
	// something.
	classes := dims[len(dims)-1]
	in.labels = make([]int32, vertices)
	for v := range in.labels {
		row := in.x.Row(v)[:classes]
		best := 0
		for j, val := range row {
			if val > row[best] {
				best = j
			}
		}
		in.labels[v] = int32(best)
	}
	in.netCfg = gnn.Config{Kind: gnn.GCN, Dims: dims, Seed: subSeed(seed, 3)}
	return in, nil
}
