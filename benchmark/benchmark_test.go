package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"graphite/internal/graph"
)

// tinySizing runs every code path of the benchmark in well under a second
// per workload.
var tinySizing = sizing{
	serveVertices: 2000,
	trainVertices: 2000,
	gateVertices:  400,
	simVertices:   200,
	setupReps:     1,
	serveWarmup:   50 * time.Millisecond,
	timeout:       5 * time.Second, // the smoke must pass under -race on a busy machine
	openRate:      1000,
	openWorkers:   128,
	replayBatches: 4,
	replayPasses:  1,
	outsideReps:   3,
	microReps:     100,
	streamBytes:   1 << 20,
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
}

func TestSegmentQuantiles(t *testing.T) {
	// Three one-second segments whose medians are 1, 100 and 3 ms: the median
	// of segments is 3, where the whole-window median would be pulled to 100
	// by the middle segment's extra samples.
	var samples []sample
	add := func(at time.Duration, ms float64, n int) {
		for i := 0; i < n; i++ {
			samples = append(samples, sample{at: at, lat: time.Duration(ms * float64(time.Millisecond))})
		}
	}
	add(500*time.Millisecond, 1, 5)
	add(1500*time.Millisecond, 100, 50)
	add(2500*time.Millisecond, 3, 4)
	add(5*time.Second, 3, 1) // past the window: clamped into the last segment
	vals, minCount := segmentQuantiles(samples, 3*time.Second, 3, 0.5, 1.0)
	if vals[0] != 3 || vals[1] != 3 {
		t.Errorf("segment medians of p50, p100 = %v, want [3 3]", vals)
	}
	if minCount != 5 {
		t.Errorf("smallest segment = %d samples, want 5", minCount)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "batch", parent: -1, start: 0, end: 100},
		{name: "sample", parent: 0, start: 10, end: 30},
		{name: "gather", parent: 0, start: 20, end: 50}, // overlaps sample: 20..30 counted once
		{name: "forward", parent: 0, start: 60, end: 70},
		{name: "inner", parent: 3, start: 62, end: 66}, // a grandchild does not reduce the root's self time
	}
	want := []time.Duration{50, 20, 30, 6, 4}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	id := r.begin(0, -1, "x")
	r.end(id) // must not panic: the un-spanned comparison runs use a nil recorder
}

func TestScheduleDeterminism(t *testing.T) {
	const rate, n = 4000.0, 10_000
	dur := 2 * time.Second
	a := poissonZipfSchedule(7, rate, dur, n, zipfS)
	if b := poissonZipfSchedule(7, rate, dur, n, zipfS); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := poissonZipfSchedule(8, rate, dur, n, zipfS); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	want := rate * dur.Seconds()
	if d := math.Abs(float64(len(a)) - want); d > 6*math.Sqrt(want) {
		t.Errorf("%d arrivals, want %.0f +- %.0f", len(a), want, 6*math.Sqrt(want))
	}
	counts := map[int32]int{}
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		if x.due >= dur || x.vertex < 0 || int(x.vertex) >= n {
			t.Fatalf("arrival %d out of range: %+v", i, x)
		}
		counts[x.vertex]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	// Zipf(1.1): the hottest id takes ~10% of draws; uniform would give 0.01%.
	if share := float64(top) / float64(len(a)); share < 0.03 {
		t.Errorf("hottest vertex has %.4f of requests; the skew is missing", share)
	}

	r1, r2 := uniformRequests(3, 16, 64, n), uniformRequests(3, 16, 64, n)
	if !reflect.DeepEqual(r1, r2) || len(r1[0]) != 64 {
		t.Error("uniformRequests is not a function of its seed")
	}

	batches := lingerBatches(a, 2*time.Millisecond, 64, 50)
	if len(batches) != 50 {
		t.Fatalf("%d batches, want the limit of 50", len(batches))
	}
	i := 0
	for _, b := range batches {
		if len(b) == 0 || len(b) > 64 {
			t.Fatalf("re-formed batch of %d vertices", len(b))
		}
		if span := a[i+len(b)-1].due - a[i].due; span >= 2*time.Millisecond {
			t.Fatalf("batch spans %v, past the linger", span)
		}
		for _, v := range b { // batches are consecutive arrivals, in order
			if v != a[i].vertex {
				t.Fatalf("batched vertex differs from arrival %d", i)
			}
			i++
		}
	}
}

func TestGateTripsOnPerturbedLogit(t *testing.T) {
	_, _, _, basic, err := gateReference(graph.Products, serveDims, 1, tinySizing)
	if err != nil {
		t.Fatal(err)
	}
	got := basic.Clone()
	if err := checkMatrix("same", got, basic, tolServe); err != nil {
		t.Fatalf("identical logits tripped the gate: %v", err)
	}
	got.Set(17, 5, got.At(17, 5)+2e-3)
	if err := checkMatrix("perturbed", got, basic, tolImpl); err == nil {
		t.Fatal("a logit off by 2e-3 passed a 1e-3 gate")
	}
	got.Set(17, 5, float32(math.NaN()))
	if err := checkMatrix("nan", got, basic, tolImpl); err == nil {
		t.Fatal("a NaN logit passed the gate")
	}

	ids := []int32{4, 9}
	resp := &inferResponse{Vertices: []int32{4, 9}, Logits: [][]float32{make([]float32, 47), make([]float32, 47)}, SnapshotVersion: 1}
	if err := validateResponse(resp, ids, 47); err != nil {
		t.Fatalf("well-formed response rejected: %v", err)
	}
	for name, mutate := range map[string]func(r *inferResponse){
		"wrong version":  func(r *inferResponse) { r.SnapshotVersion = 2 },
		"wrong echo":     func(r *inferResponse) { r.Vertices = []int32{9, 4} },
		"missing row":    func(r *inferResponse) { r.Logits = r.Logits[:1] },
		"narrow row":     func(r *inferResponse) { r.Logits[1] = make([]float32, 46) },
		"infinite logit": func(r *inferResponse) { r.Logits[0][3] = float32(math.Inf(1)) },
	} {
		bad := &inferResponse{Vertices: append([]int32(nil), resp.Vertices...), SnapshotVersion: 1,
			Logits: [][]float32{append([]float32(nil), resp.Logits[0]...), append([]float32(nil), resp.Logits[1]...)}}
		mutate(bad)
		if err := validateResponse(bad, ids, 47); err == nil {
			t.Errorf("%s: response accepted", name)
		}
	}
}

func TestResultRegistry(t *testing.T) {
	specs := []metricSpec{{name: "a", on: onAll}, {name: "b", on: onBulk}, {name: "c", on: onTrain}}
	r := newResult()
	r.set("a", 1, "")
	r.set("b", 2, "")
	if err := r.finish(specs, onBulk); err != nil {
		t.Fatalf("complete set rejected: %v", err)
	}
	if v, ok := r.vals["c"]; !ok || v != 0 {
		t.Errorf("bypassed metric c = %v, %v; want 0, present", v, ok)
	}
	for name, fill := range map[string]func(r *result){
		"missing":    func(r *result) { r.set("a", 1, "") },
		"twice":      func(r *result) { r.set("a", 1, ""); r.set("a", 1, ""); r.set("b", 1, "") },
		"unnamed":    func(r *result) { r.set("a", 1, ""); r.set("b", 1, ""); r.set("z", 1, "") },
		"bypassed":   func(r *result) { r.set("a", 1, ""); r.set("b", 1, ""); r.set("c", 1, "") },
		"not finite": func(r *result) { r.set("a", math.NaN(), ""); r.set("b", 1, "") },
	} {
		r := newResult()
		fill(r)
		if err := r.finish(specs, onBulk); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSpecMatchesBenchmarkJSON holds the Go tables and BENCHMARK.json to each
// other and to the limits of the benchmark contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) || !reflect.DeepEqual(file.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("paths %v, command %v", file.Paths, file.Command)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q", name, unit)
		}
		if unit != "" && better != "higher" && better != "lower" {
			t.Errorf("%s: better %q", name, better)
		}
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		checkName(w.Name, "", "")
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q differs from the program's %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d + %d metrics, the program %d + %d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for i, m := range file.EndToEnd {
		checkName(m.Name, m.Unit, m.Better)
		s := endToEnd[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound != s.bound {
			t.Errorf("end-to-end metric %d: %+v differs from the program's %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if s := endToEnd[0]; s.name != "setup_s" || s.unit != "s" || s.better != "lower" || s.bound != maxBound {
		t.Errorf("setup_s must be present, in s, lower-is-better, with the largest bound: %+v", s)
	}
	for i, m := range file.PerLayer {
		checkName(m.Name, m.Unit, m.Better)
		if s := perLayer[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per-layer metric %d: %+v differs from the program's %+v", i, m, s)
		}
	}
}

// TestSmokeAllWorkloads runs all four workloads at tiny scale with the traced
// replay: the correctness gates pass, every end-to-end and per-layer metric is
// emitted exactly once and nothing unnamed is (execute checks the registry),
// and the spans form a loadable trace whose stages fit inside their op.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel()
			r := newRun(wl, 1, 300*time.Millisecond, true, tinySizing, io.Discard)
			if err := r.execute(); err != nil {
				t.Fatal(err)
			}
			if len(r.e2e.vals) != len(endToEnd) || len(r.layers.vals) != len(perLayer) {
				t.Fatalf("%d + %d metrics emitted, want %d + %d", len(r.e2e.vals), len(r.layers.vals), len(endToEnd), len(perLayer))
			}
			for _, s := range endToEnd {
				if v := r.e2e.vals[s.name]; !(v > 0) {
					t.Errorf("%s = %v; end-to-end metrics are never 0", s.name, v)
				}
			}
			if r.attempted < 1 {
				t.Errorf("attempted = %d", r.attempted)
			}

			self := selfTimes(r.rec.spans)
			roots := 0
			for i, sp := range r.rec.spans {
				if sp.end < sp.start {
					t.Fatalf("span %d (%s) never ended", i, sp.name)
				}
				if sp.parent < 0 {
					roots++
				} else if p := r.rec.spans[sp.parent]; sp.start < p.start || sp.end > p.end || sp.op != p.op {
					t.Errorf("span %d (%s) escapes its parent %s", i, sp.name, p.name)
				}
				if self[i] < 0 {
					t.Errorf("span %d (%s): children cover more than the span", i, sp.name)
				}
			}
			if roots == 0 {
				t.Fatal("the traced replay recorded no operation")
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := r.rec.writeChrome(path, wl.name); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) != len(r.rec.spans)+1 {
				t.Errorf("trace has %d events for %d spans (error %v)", len(trace.TraceEvents), len(r.rec.spans), err)
			}
		})
	}
}
