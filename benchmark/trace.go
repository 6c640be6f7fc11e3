package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one recorded interval around a call into a layer: name, start and
// end (offsets from the recorder's epoch), the span that caused it, and the
// id of the operation (request batch, pass, epoch) it belongs to.
type span struct {
	name       string
	op         int
	parent     int // index into recorder.spans, -1 for an op's root span
	start, end time.Duration
}

// recorder is the benchmark's own span recorder. It records from outside,
// around the public calls into each layer; spans inside the program are a
// later change. Spans stay in memory until the run ends. A nil recorder
// records nothing, which is how the un-spanned comparison runs execute the
// identical code path. Not safe for concurrent use: the traced replay is
// sequential by design, so a span's time is not shared with another op.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(op, parent int, name string) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: time.Since(r.epoch), end: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].end = time.Since(r.epoch)
}

func (s span) dur() time.Duration { return s.end - s.start }

// selfTimes returns each span's self time: its duration minus the part of its
// interval that its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ s, e time.Duration }
	kids := make(map[int][]iv)
	for _, sp := range spans {
		if sp.parent >= 0 {
			kids[sp.parent] = append(kids[sp.parent], iv{sp.start, sp.end})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, sp := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
		var covered time.Duration
		cur := sp.start
		for _, c := range ivs {
			s, e := c.s, c.e
			if s < cur {
				s = cur
			}
			if e > sp.end {
				e = sp.end
			}
			if e > s {
				covered += e - s
				cur = e
			}
		}
		out[i] = sp.dur() - covered
	}
	return out
}

// durationsByName returns the durations of every span with the given name
// whose parent span has the given name ("" matches any parent).
func (r *recorder) durationsByName(name, parentName string) []time.Duration {
	var out []time.Duration
	for _, sp := range r.spans {
		if sp.name != name {
			continue
		}
		if parentName != "" && (sp.parent < 0 || r.spans[sp.parent].name != parentName) {
			continue
		}
		out = append(out, sp.dur())
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func medianDur(ds []time.Duration) time.Duration {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return time.Duration(median(v))
}

// writeChrome writes the spans as Chrome trace_event JSON (chrome://tracing,
// Perfetto): one complete ("X") event per span, one track per operation, the
// parent span id and the self time in args.
func (r *recorder) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	self := selfTimes(r.spans)
	events := []event{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "benchmark " + workload}}}
	for i, sp := range r.spans {
		events = append(events, event{
			Name: sp.name, Ph: "X", TS: micros(sp.start), Dur: micros(sp.dur()), PID: 1, TID: sp.op,
			Args: map[string]any{"id": i, "parent": sp.parent, "self_us": micros(self[i])},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
