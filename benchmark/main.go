// Command benchmark is the repository's benchmark: four workloads, six
// end-to-end metrics (plus the attempted/failed counts) and a per-layer cost
// model of a served request and a full-batch pass, measured from outside
// through the packages' public functions. See README.md in this directory.
//
//	go run ./benchmark --workload serve_point_open --seed 1 --seconds 12 --trace 0
//	go run ./benchmark                 # every workload, untraced then traced
//	go run ./benchmark -repeat 2       # the whole set twice, compared
//
// With --workload the last line of standard output is one JSON object:
// correct, attempted, failed and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1). Any correctness failure exits non-zero and
// prints no metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// report is the JSON object a single-workload run prints last.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "run only this workload and print the result JSON last (default: all four, each in its own subprocess)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with the benchmark's tracing off; 1: per-layer metrics from the traced run")
	traceOut := flag.String("trace-out", "", "directory that receives one Chrome trace per traced workload")
	repeat := flag.Int("repeat", 1, "without --workload: run the whole set this many times and compare the first two")
	flag.Parse()

	var err error
	if *workload == "" {
		err = runAll(*seed, *seconds, *traceOut, *repeat)
	} else {
		err = runOne(*workload, *seed, *seconds, *trace == 1, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its metrics by name,
// then the result JSON.
func runOne(name string, seed int64, seconds float64, traced bool, traceOut string) error {
	wl, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	r := newRun(wl, seed, time.Duration(seconds*float64(time.Second)), traced, fullSizing, os.Stdout)
	fmt.Printf("== %s  seed %d  window %.1fs  traced %v\n", name, seed, seconds, traced)
	if err := r.execute(); err != nil {
		return err
	}
	printMetrics(os.Stdout, r.e2e, endToEnd, wl.bit)
	specs, res := endToEnd, r.e2e
	if traced {
		printMetrics(os.Stdout, r.layers, perLayer, wl.bit)
		specs, res = perLayer, r.layers
		if traceOut != "" {
			if err := os.MkdirAll(traceOut, 0o755); err != nil {
				return err
			}
			path := filepath.Join(traceOut, name+".trace.json")
			if err := r.rec.writeChrome(path, name); err != nil {
				return err
			}
			fmt.Printf("trace: %d spans written to %s\n", len(r.rec.spans), path)
		}
	}
	rep := report{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		rep.Metrics[s.name] = metricValue{Value: res.vals[s.name], Unit: s.unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printMetrics prints every metric by name with its unit; the metrics of
// layers the workload bypasses (all 0) are folded into one closing line.
func printMetrics(w io.Writer, res *result, specs []metricSpec, bit int) {
	bypassed := 0
	for _, s := range specs {
		if s.on&bit == 0 {
			bypassed++
			continue
		}
		line := fmt.Sprintf("%-34s %16s %-9s", s.name, strconv.FormatFloat(res.vals[s.name], 'g', 8, 64), s.unit)
		if s.bound > 0 {
			line += fmt.Sprintf(" [bound %2.0f%%]", s.bound*100)
		}
		if note := res.notes[s.name]; note != "" {
			line += "  # " + note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if bypassed > 0 {
		fmt.Fprintf(w, "(%d metrics of layers this workload bypasses report 0)\n", bypassed)
	}
}

// runChild re-executes this binary for one workload, so resident set, heap
// and GC state never leak from one workload into the next, passes its output
// through and returns the parsed result line.
func runChild(name string, seed int64, seconds float64, traced bool, traceOut string) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if traceOut != "" {
			args = append(args, "--trace-out", traceOut)
		}
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("%s: result line: %w", name, err)
	}
	return rep, nil
}

// runAll runs every workload untraced and traced, repeat times over, and with
// repeat >= 2 compares the first two sets: the repeatability artefact.
func runAll(seed int64, seconds float64, traceOut string, repeat int) error {
	type key struct {
		workload string
		traced   bool
	}
	sets := make([]map[key]report, repeat)
	for i := range sets {
		sets[i] = map[key]report{}
		for _, wl := range workloads {
			for _, traced := range []bool{false, true} {
				rep, err := runChild(wl.name, seed, seconds, traced, traceOut)
				if err != nil {
					return err
				}
				sets[i][key{wl.name, traced}] = rep
			}
		}
	}
	if repeat < 2 {
		return nil
	}
	fmt.Printf("\n== repeatability: set 1 against set 2, seed %d\n", seed)
	unresolved := 0
	for _, wl := range workloads {
		a, b := sets[0][key{wl.name, false}], sets[1][key{wl.name, false}]
		for _, s := range endToEnd {
			va, vb := a.Metrics[s.name].Value, b.Metrics[s.name].Value
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := "PASS"
			if !(diff <= s.bound) {
				verdict = "UNRESOLVED"
				unresolved++
			}
			fmt.Printf("%-18s %-16s %14.6g %14.6g  %+7.2f%%  bound %2.0f%%  %s\n", wl.name, s.name, va, vb, (vb-va)/va*100, s.bound*100, verdict)
		}
		verdict := "PASS"
		if a.Failed != 0 || b.Failed != 0 {
			verdict = "UNRESOLVED"
			unresolved++
		}
		fmt.Printf("%-18s %-16s %14d %14d  of %d and %d attempted  %s\n", wl.name, "failed", a.Failed, b.Failed, a.Attempted, b.Attempted, verdict)
		ta, tb := sets[0][key{wl.name, true}], sets[1][key{wl.name, true}]
		for _, s := range perLayer {
			if va, vb := ta.Metrics[s.name].Value, tb.Metrics[s.name].Value; s.exact && va != vb {
				fmt.Printf("%-18s %-34s %v != %v  count differs between sets\n", wl.name, s.name, va, vb)
				unresolved++
			}
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d comparisons unresolved", unresolved)
	}
	fmt.Println("every end-to-end metric within its bound, no failed operation, every exact count identical")
	return nil
}
