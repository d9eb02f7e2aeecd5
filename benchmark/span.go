package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Times are nanoseconds since the run's t0; Parent indexes the recorder's span list (-1 for a root); spans of
// one operation (one training step, one request) share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op_id"`
}

// spanRec records spans from one goroutine, in memory. A nil recorder
// records nothing, which is how the untraced runs share the traced code.
type spanRec struct {
	t0    time.Time
	spans []span
	open  []int // stack of spans begun and not yet ended
}

// newSpanRec makes a recorder; recorders of one run share t0 so their spans
// merge onto one time axis.
func newSpanRec(t0 time.Time) *spanRec { return &spanRec{t0: t0} }

// begin opens a span under the innermost open one and returns its index.
func (r *spanRec) begin(name string, op int) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op})
	r.open = append(r.open, id)
	r.spans[id].Start = int64(time.Since(r.t0))
	return id
}

// end closes the innermost open span, which must be id.
func (r *spanRec) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns each span's duration minus the durations of its direct
// children, in nanoseconds, indexed like spans.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// family is the part of a span name before "/": "nn.conv_fwd/conv3" belongs
// to family "nn.conv_fwd", so a metric can sum a step's spans of one kind.
func family(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// perOpMs sums, per operation, the chosen time (self or whole) of the spans
// of one family, and returns one value per operation in milliseconds.
// Operations with negative ids are warm-up and left out.
func perOpMs(spans []span, fam string, self bool) []float64 {
	var selfNs []int64
	if self {
		selfNs = selfTimes(spans)
	}
	sums := map[int]int64{}
	var order []int
	for i, s := range spans {
		if s.Op < 0 || family(s.Name) != fam {
			continue
		}
		if _, seen := sums[s.Op]; !seen {
			order = append(order, s.Op)
		}
		if self {
			sums[s.Op] += selfNs[i]
		} else {
			sums[s.Op] += s.End - s.Start
		}
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = float64(sums[op]) / 1e6
	}
	return out
}

// eachMs returns the duration of every span of that name, in milliseconds,
// warm-up operations left out.
func eachMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Op >= 0 && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// mergeSpans concatenates recorders' spans, re-basing parent indexes.
func mergeSpans(recs ...*spanRec) []span {
	var all []span
	for _, r := range recs {
		if r == nil {
			continue
		}
		base := len(all)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
