package obsv

// metrics.go is the exposition half of the observability substrate: a
// stdlib-only metrics registry rendering the Prometheus text format
// (version 0.0.4), so every daemon in the fleet — cosmoflow-serve,
// cosmoflow-gateway, cosmoflow-shardd, and a training rank's debug
// listener — is scrapeable with one format and one `GET /metrics` route.
//
// The registry supports two integration styles:
//
//   - Direct instruments (Counter, Gauge, Histogram): own their storage,
//     updated with atomics, for code paths instrumented from scratch.
//   - Callback families (CounterFunc, GaugeFunc, HistogramFunc): produce
//     samples at scrape time from counters a subsystem already keeps
//     (serve.Metrics, the gateway's admission/tenant/backend stats,
//     data.Handler transfer counters, Recorder span snapshots) — no
//     double instrumentation on hot paths, and label sets that are only
//     known at runtime (per model, per tenant, per backend).
//
// ParseExposition is the matching validator: tests and the e2e suite
// parse what the handlers emit instead of grepping for
// substrings, so a malformed exposition fails loudly.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is the exposition family type.
type MetricType string

// Exposition family types (the subset of the Prometheus text format the
// fleet uses).
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// ContentTypeExposition is the Content-Type of the text exposition format.
const ContentTypeExposition = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair on a sample. Order is preserved as given
// (scrapers treat label sets as unordered; a stable order keeps the output
// diffable).
type Label struct {
	Name, Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Sample is one point a callback family produces at scrape time.
type Sample struct {
	Labels []Label
	Value  float64
}

// HistogramSample is one histogram a HistogramFunc family produces at
// scrape time: per-bucket (non-cumulative) counts over the finite upper
// bounds, with the final Counts entry the overflow (+Inf) bucket — the
// natural shape of an atomically bucketed histogram like serve.Metrics'.
// len(Counts) must be len(UpperBounds)+1.
type HistogramSample struct {
	Labels      []Label
	UpperBounds []float64
	Counts      []uint64
	Sum         float64
}

// MetricsRegistry is an ordered set of metric families rendered as one
// text exposition. Registration is not hot-path (daemons register at
// startup); Counter/Gauge/Histogram updates are lock-free.
type MetricsRegistry struct {
	mu     sync.Mutex
	order  []*family
	byName map[string]*family
}

type family struct {
	name, help string
	typ        MetricType

	mu    sync.Mutex
	kids  []*instrument
	byKey map[string]*instrument

	// Exactly one of these is set for callback families.
	counterFn   func() []Sample
	gaugeFn     func() []Sample
	histogramFn func() []HistogramSample
}

// instrument is one static child of a family (one label set).
type instrument struct {
	labels []Label

	// Counter/Gauge value as float64 bits.
	bits atomic.Uint64

	// Histogram state: counts[i] covers observations <= bounds[i]
	// (non-cumulative); counts[len(bounds)] is the overflow bucket.
	bounds  []float64
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry {
	return &MetricsRegistry{byName: make(map[string]*family)}
}

// Counter registers (or finds) the counter family name and returns the
// child for the given label set. Counters only go up.
func (r *MetricsRegistry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, TypeCounter, false)
	return &Counter{f.child(labels)}
}

// Gauge registers (or finds) the gauge family name and returns the child
// for the given label set.
func (r *MetricsRegistry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, TypeGauge, false)
	return &Gauge{f.child(labels)}
}

// Histogram registers (or finds) the histogram family name and returns the
// child for the given label set. buckets are the finite upper bounds in
// increasing order; the +Inf bucket is implicit. The bucket layout is
// fixed at first registration.
func (r *MetricsRegistry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	f := r.family(name, help, TypeHistogram, false)
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obsv: histogram %s buckets not increasing at %d", name, i))
		}
	}
	c := f.child(labels)
	f.mu.Lock()
	if c.bounds == nil {
		c.bounds = append([]float64(nil), buckets...)
		c.counts = make([]atomic.Uint64, len(buckets)+1)
	}
	f.mu.Unlock()
	return &Histogram{c}
}

// CounterFunc registers a callback counter family: fn is invoked at scrape
// time and must return cumulative values (label sets may vary between
// scrapes — per-model, per-tenant).
func (r *MetricsRegistry) CounterFunc(name, help string, fn func() []Sample) {
	f := r.family(name, help, TypeCounter, true)
	f.counterFn = fn
}

// GaugeFunc registers a callback gauge family.
func (r *MetricsRegistry) GaugeFunc(name, help string, fn func() []Sample) {
	f := r.family(name, help, TypeGauge, true)
	f.gaugeFn = fn
}

// HistogramFunc registers a callback histogram family for subsystems that
// already keep bucketed counts (serve.Metrics' latency histogram).
func (r *MetricsRegistry) HistogramFunc(name, help string, fn func() []HistogramSample) {
	f := r.family(name, help, TypeHistogram, true)
	f.histogramFn = fn
}

// family finds or creates a family, enforcing name validity and type
// consistency. Registration conflicts are programmer errors and panic.
func (r *MetricsRegistry) family(name, help string, typ MetricType, callback bool) *family {
	if !validMetricName(name) {
		panic("obsv: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obsv: metric %s registered as %s and %s", name, f.typ, typ))
		}
		if callback {
			panic("obsv: duplicate callback registration for " + name)
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, byKey: make(map[string]*instrument)}
	r.byName[name] = f
	r.order = append(r.order, f)
	return f
}

// child finds or creates the instrument for one label set.
func (f *family) child(labels []Label) *instrument {
	for _, l := range labels {
		if !validLabelName(l.Name) {
			panic("obsv: invalid label name " + strconv.Quote(l.Name))
		}
	}
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.byKey[key]; ok {
		return c
	}
	c := &instrument{labels: append([]Label(nil), labels...)}
	f.byKey[key] = c
	f.kids = append(f.kids, c)
	return c
}

func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('\xff')
		b.WriteString(l.Value)
		b.WriteByte('\xfe')
	}
	return b.String()
}

// Counter is a monotonically increasing value.
type Counter struct{ c *instrument }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative deltas are ignored (counters
// never go down).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	addFloat(&c.c.bits, v)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct{ g *instrument }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.g.bits.Load()) }

// Histogram is a bucketed distribution with fixed upper bounds.
type Histogram struct{ h *instrument }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.h.bounds, v) // first bound >= v
	h.h.counts[i].Add(1)
	addFloat(&h.h.sumBits, v)
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Handler returns the GET /metrics handler rendering the registry in the
// Prometheus text exposition format.
func (r *MetricsRegistry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentTypeExposition)
		if req.Method == http.MethodHead {
			return
		}
		_ = r.Write(w)
	})
}

// Write renders the full exposition.
func (r *MetricsRegistry) Write(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (f *family) write(w *bufio.Writer) error {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	switch {
	case f.counterFn != nil:
		for _, s := range f.counterFn() {
			writeSample(w, f.name, "", s.Labels, s.Value)
		}
	case f.gaugeFn != nil:
		for _, s := range f.gaugeFn() {
			writeSample(w, f.name, "", s.Labels, s.Value)
		}
	case f.histogramFn != nil:
		for _, h := range f.histogramFn() {
			writeHistogram(w, f.name, h)
		}
	default:
		f.mu.Lock()
		kids := append([]*instrument(nil), f.kids...)
		f.mu.Unlock()
		for _, c := range kids {
			if f.typ == TypeHistogram {
				writeHistogram(w, f.name, c.snapshot())
				continue
			}
			writeSample(w, f.name, "", c.labels, math.Float64frombits(c.bits.Load()))
		}
	}
	return nil
}

// snapshot captures a static histogram instrument as a HistogramSample.
func (c *instrument) snapshot() HistogramSample {
	h := HistogramSample{
		Labels:      c.labels,
		UpperBounds: c.bounds,
		Counts:      make([]uint64, len(c.counts)),
		Sum:         math.Float64frombits(c.sumBits.Load()),
	}
	for i := range c.counts {
		h.Counts[i] = c.counts[i].Load()
	}
	return h
}

// writeHistogram renders one histogram sample: cumulative _bucket series
// (ending at le="+Inf"), then _sum and _count.
func writeHistogram(w *bufio.Writer, name string, h HistogramSample) {
	var cum uint64
	for i, ub := range h.UpperBounds {
		if i < len(h.Counts) {
			cum += h.Counts[i]
		}
		writeSample(w, name+"_bucket", formatValue(ub), h.Labels, float64(cum))
	}
	if n := len(h.UpperBounds); n < len(h.Counts) {
		for _, c := range h.Counts[n:] {
			cum += c
		}
	}
	writeSample(w, name+"_bucket", "+Inf", h.Labels, float64(cum))
	writeSample(w, name+"_sum", "", h.Labels, h.Sum)
	writeSample(w, name+"_count", "", h.Labels, float64(cum))
}

// writeSample renders one `name{labels} value` line; le, when non-empty,
// is appended as the bucket bound label.
func writeSample(w *bufio.Writer, name, le string, labels []Label, v float64) {
	w.WriteString(name)
	if len(labels) > 0 || le != "" {
		w.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.WriteByte(',')
			}
			w.WriteString(l.Name)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(l.Value))
			w.WriteByte('"')
		}
		if le != "" {
			if len(labels) > 0 {
				w.WriteByte(',')
			}
			w.WriteString(`le="`)
			w.WriteString(le)
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// RegisterRecorder exposes every span of rec as two callback counter
// families keyed by a span label: <base>_seconds_total (cumulative time
// inside the span) and <base>_ops_total (observation count). This is how
// Recorder-instrumented subsystems (the data.Loader stage spans, the comm
// collectives) join a scrape surface without re-instrumenting.
func RegisterRecorder(r *MetricsRegistry, base, help string, rec *Recorder) {
	r.CounterFunc(base+"_seconds_total", help+" (cumulative seconds)", func() []Sample {
		stats := rec.Snapshot()
		out := make([]Sample, 0, len(stats))
		for _, st := range stats {
			out = append(out, Sample{Labels: []Label{L("span", st.Name)}, Value: st.TotalMs / 1e3})
		}
		return out
	})
	r.CounterFunc(base+"_ops_total", help+" (observation count)", func() []Sample {
		stats := rec.Snapshot()
		out := make([]Sample, 0, len(stats))
		for _, st := range stats {
			out = append(out, Sample{Labels: []Label{L("span", st.Name)}, Value: float64(st.Count)})
		}
		return out
	})
}

// ---- exposition parsing (tests and the e2e suite's scrape checks) ----

// ParsedSample is one sample line of an exposition: the full sample name
// (including _bucket/_sum/_count suffixes for histograms), its label set,
// and the value.
type ParsedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsedFamily is one metric family of a parsed exposition.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    MetricType
	Samples []ParsedSample
}

// Value returns the first sample with the given full name whose labels are
// a superset of want (nil matches anything), with ok reporting presence.
func (f *ParsedFamily) Value(name string, want map[string]string) (float64, bool) {
	for _, s := range f.Samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// Sum totals every sample of the family's base series (excluding
// histogram _bucket/_sum lines; _count lines are excluded too, so for a
// histogram family Sum is 0 — use Value for those).
func (f *ParsedFamily) Sum() float64 {
	var t float64
	for _, s := range f.Samples {
		if s.Name == f.Name {
			t += s.Value
		}
	}
	return t
}

// ParseExposition parses and validates a Prometheus text exposition:
// well-formed HELP/TYPE comments, sample lines that belong to a typed
// family, parseable values, and per-histogram invariants (cumulative
// bucket counts non-decreasing, +Inf bucket equal to _count). It returns
// the families keyed by base name.
func ParseExposition(rd io.Reader) (map[string]*ParsedFamily, error) {
	fams := make(map[string]*ParsedFamily)
	var cur *ParsedFamily
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			f, ok := fams[name]
			if !ok {
				f = &ParsedFamily{Name: name}
				fams[name] = f
			}
			if fields[1] == "HELP" {
				if len(fields) == 4 {
					f.Help = fields[3]
				}
			} else {
				if f.Type != "" {
					return nil, fmt.Errorf("obsv: line %d: duplicate TYPE for %s", lineNo, name)
				}
				typ := MetricType(strings.TrimSpace(fields[3]))
				switch typ {
				case TypeCounter, TypeGauge, TypeHistogram, "summary", "untyped":
					f.Type = typ
				default:
					return nil, fmt.Errorf("obsv: line %d: unknown TYPE %q", lineNo, fields[3])
				}
				cur = f
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obsv: line %d: %w", lineNo, err)
		}
		f := familyFor(fams, cur, s.Name)
		if f == nil {
			return nil, fmt.Errorf("obsv: line %d: sample %s precedes its TYPE", lineNo, s.Name)
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range fams {
		if f.Type == TypeHistogram {
			if err := checkHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// familyFor resolves which family a sample belongs to: exact name, or for
// histograms the _bucket/_sum/_count suffix of the current family.
func familyFor(fams map[string]*ParsedFamily, cur *ParsedFamily, name string) *ParsedFamily {
	if f, ok := fams[name]; ok && f.Type != "" {
		return f
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base == name {
			continue
		}
		if f, ok := fams[base]; ok && f.Type == TypeHistogram {
			return f
		}
	}
	if cur != nil && strings.HasPrefix(name, cur.Name) {
		return cur
	}
	return nil
}

// parseSampleLine parses `name{l1="v1",...} value [timestamp]`.
func parseSampleLine(line string) (ParsedSample, error) {
	s := ParsedSample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("malformed value in %q", line)
	}
	v, err := parseFloat(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", fields[0], err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(s string, out map[string]string) error {
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq < 0 {
			return fmt.Errorf("malformed labels %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		if !validLabelName(name) && name != "le" {
			return fmt.Errorf("invalid label name %q", name)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return fmt.Errorf("unquoted label value after %q", name)
		}
		s = s[1:]
		var val strings.Builder
		for {
			if len(s) == 0 {
				return fmt.Errorf("unterminated label value for %q", name)
			}
			c := s[0]
			if c == '\\' && len(s) > 1 {
				switch s[1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[1])
				}
				s = s[2:]
				continue
			}
			s = s[1:]
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		out[name] = val.String()
		s = strings.TrimPrefix(strings.TrimSpace(s), ",")
		s = strings.TrimSpace(s)
	}
	return nil
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// checkHistogram validates one histogram family: per label set, cumulative
// bucket counts must be non-decreasing in le and the +Inf bucket must
// equal _count.
func checkHistogram(f *ParsedFamily) error {
	type series struct {
		bounds []float64
		counts []float64
		count  float64
		hasCnt bool
	}
	byKey := map[string]*series{}
	keyOf := func(labels map[string]string) string {
		names := make([]string, 0, len(labels))
		for n := range labels {
			if n != "le" {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s=%s;", n, labels[n])
		}
		return b.String()
	}
	for _, s := range f.Samples {
		key := keyOf(s.Labels)
		sr := byKey[key]
		if sr == nil {
			sr = &series{}
			byKey[key] = sr
		}
		switch s.Name {
		case f.Name + "_bucket":
			le, err := parseFloat(s.Labels["le"])
			if err != nil {
				return fmt.Errorf("obsv: histogram %s: bad le %q", f.Name, s.Labels["le"])
			}
			sr.bounds = append(sr.bounds, le)
			sr.counts = append(sr.counts, s.Value)
		case f.Name + "_count":
			sr.count = s.Value
			sr.hasCnt = true
		}
	}
	for key, sr := range byKey {
		last := math.Inf(-1)
		lastCount := 0.0
		sawInf := false
		for i, le := range sr.bounds {
			if le <= last {
				return fmt.Errorf("obsv: histogram %s{%s}: le not increasing", f.Name, key)
			}
			if sr.counts[i] < lastCount {
				return fmt.Errorf("obsv: histogram %s{%s}: bucket counts decrease", f.Name, key)
			}
			last, lastCount = le, sr.counts[i]
			if math.IsInf(le, 1) {
				sawInf = true
				if sr.hasCnt && sr.counts[i] != sr.count {
					return fmt.Errorf("obsv: histogram %s{%s}: +Inf bucket %v != count %v",
						f.Name, key, sr.counts[i], sr.count)
				}
			}
		}
		if len(sr.bounds) > 0 && !sawInf {
			return fmt.Errorf("obsv: histogram %s{%s}: missing +Inf bucket", f.Name, key)
		}
	}
	return nil
}
