// Package metrics is the serving stack's one Prometheus text-format emitter.
// agcmd and agcmgw declare their families against a Registry; every
// exposition decision — family order, sorted label values, %d counters
// against shortest-form floats — is made here and nowhere else.
//
// A Registry keeps its families in registration order under one mutex:
// increments are nanoseconds against simulations that take milliseconds to
// minutes, and the single lock makes every scrape an internally consistent
// snapshot of the stored series, so two scrapes of identical state are
// byte-identical.  Register every family before the first Inc, Observe or
// WriteText.
package metrics

import (
	"io"
	"sort"
	"strconv"
	"sync"
)

// key addresses one series inside a family by its label values.  Families
// carry at most two labels; unused slots stay empty.  A fixed-size array
// keeps Inc and Observe on an existing series free of allocation.
type key [2]string

// series is one stored sample: a counter's value, or a histogram's
// observation count, sum and per-bound (non-cumulative) counts.
type series struct {
	n       uint64
	sum     float64
	buckets []uint64
}

// family is one HELP/TYPE block.  It either stores series (counters and
// histograms) or samples them at scrape time through sample.
type family struct {
	name, help, typ string
	labels          []string
	bounds          []float64 // histogram upper bounds; nil for counters
	series          map[key]*series
	// sample appends a scrape-time family's sample lines.
	sample func(b []byte) []byte
}

// Registry is an ordered set of metric families.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

func (r *Registry) add(f *family) *family {
	if len(f.labels) > len(key{}) {
		panic("metrics: a family carries at most two labels")
	}
	f.series = make(map[key]*series)
	r.mu.Lock()
	if f.sample == nil && len(f.labels) == 0 {
		f.at(nil) // an unlabelled family is emitted from zero
	}
	r.families = append(r.families, f)
	r.mu.Unlock()
	return f
}

func (f *family) key(values []string) key {
	if len(values) != len(f.labels) {
		panic("metrics: label value count differs from the family's label names")
	}
	var k key
	copy(k[:], values)
	return k
}

// at returns the series for the label values, creating it on first use.
// The caller holds the registry lock.
func (f *family) at(values []string) *series {
	k := f.key(values)
	s := f.series[k]
	if s == nil {
		s = &series{buckets: make([]uint64, len(f.bounds))}
		f.series[k] = s
	}
	return s
}

// Counter is a monotonic counter family, labelled or not.
type Counter struct {
	r *Registry
	f *family
}

// Counter registers a counter family with the given label names.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return &Counter{r, r.add(&family{name: name, help: help, typ: "counter", labels: labels})}
}

// Inc adds one to the series with the given label values.
func (c *Counter) Inc(values ...string) {
	c.r.mu.Lock()
	c.f.at(values).n++
	c.r.mu.Unlock()
}

// Get returns one series' value; a series never incremented reads 0.
func (c *Counter) Get(values ...string) uint64 {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	if s := c.f.series[c.f.key(values)]; s != nil {
		return s.n
	}
	return 0
}

// Total returns the sum over every series of the family.
func (c *Counter) Total() uint64 {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	var n uint64
	//lint:allow nondeterm integer addition commutes; nothing is emitted in map order
	for _, s := range c.f.series {
		n += s.n
	}
	return n
}

// Histogram is a histogram family over fixed buckets, labelled or not.
type Histogram struct {
	r *Registry
	f *family
}

// Histogram registers a histogram family.  bounds are the ascending bucket
// upper limits, fixed at registration so emission never depends on runtime
// state; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return &Histogram{r, r.add(&family{name: name, help: help, typ: "histogram", labels: labels, bounds: bounds})}
}

// Observe records v in the series with the given label values.
func (h *Histogram) Observe(v float64, values ...string) {
	h.r.mu.Lock()
	s := h.f.at(values)
	for i, b := range h.f.bounds {
		if v <= b {
			s.buckets[i]++
			break
		}
	}
	s.sum += v
	s.n++
	h.r.mu.Unlock()
}

// Snapshot returns one series' observation count and sum under one lock.
func (h *Histogram) Snapshot(values ...string) (count uint64, sum float64) {
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	if s := h.f.series[h.f.key(values)]; s != nil {
		return s.n, s.sum
	}
	return 0, 0
}

// IntFunc registers an unlabelled family of the given type ("gauge", or
// "counter" for a total kept elsewhere) whose value fn reports at scrape
// time.
func (r *Registry) IntFunc(name, help, typ string, fn func() int64) {
	r.IntVecFunc(name, help, typ, "", func(emit func(string, int64)) { emit("", fn()) })
}

// IntVecFunc registers a one-label family sampled at scrape time: fn calls
// emit once per series and is responsible for a deterministic order.
func (r *Registry) IntVecFunc(name, help, typ, label string, fn func(emit func(value string, v int64))) {
	f := &family{name: name, help: help, typ: typ}
	if label != "" {
		f.labels = []string{label}
	}
	f.sample = func(b []byte) []byte {
		fn(func(value string, v int64) {
			b = append(strconv.AppendInt(f.appendName(b, "", key{value}, ""), v, 10), '\n')
		})
		return b
	}
	r.add(f)
}

// FloatFunc registers an unlabelled gauge whose value fn reports at scrape
// time, emitted in shortest round-trip form.
func (r *Registry) FloatFunc(name, help string, fn func() float64) {
	f := &family{name: name, help: help, typ: "gauge"}
	f.sample = func(b []byte) []byte { return appendFloat(f.appendName(b, "", key{}, ""), fn()) }
	r.add(f)
}

// StatusLabel is an HTTP status code as a label value, read from a table
// built once: labelling a response by its code does not allocate.
func StatusLabel(code int) string {
	if code >= 0 && code < len(statusLabels) {
		return statusLabels[code]
	}
	return strconv.Itoa(code)
}

var statusLabels = func() (t [600]string) {
	for c := range t {
		t[c] = strconv.Itoa(c)
	}
	return t
}()

func appendUint(b []byte, n uint64) []byte { return append(strconv.AppendUint(b, n, 10), '\n') }

func appendFloat(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
}

// appendName appends a sample line up to its value: name+suffix, the label
// set {l1="v1",l2="v2",le="x"} (braces omitted when empty) and a space.
func (f *family) appendName(b []byte, suffix string, k key, le string) []byte {
	b = append(append(b, f.name...), suffix...)
	sep := byte('{')
	for i, l := range f.labels {
		b = strconv.AppendQuote(append(append(append(b, sep), l...), '='), k[i])
		sep = ','
	}
	if le != "" {
		b = strconv.AppendQuote(append(append(b, sep), "le="...), le)
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	return append(b, ' ')
}

// appendSeries appends one stored series: a counter line, or a histogram's
// cumulative buckets, sum and count.
func (f *family) appendSeries(b []byte, k key, s *series) []byte {
	if f.bounds == nil {
		return appendUint(f.appendName(b, "", k, ""), s.n)
	}
	cum := uint64(0)
	for i, bound := range f.bounds {
		cum += s.buckets[i]
		le := strconv.FormatFloat(bound, 'g', -1, 64)
		b = appendUint(f.appendName(b, "_bucket", k, le), cum)
	}
	b = appendUint(f.appendName(b, "_bucket", k, "+Inf"), s.n)
	b = appendFloat(f.appendName(b, "_sum", k, ""), s.sum)
	return appendUint(f.appendName(b, "_count", k, ""), s.n)
}

// WriteText renders the Prometheus text exposition: families in registration
// order, each family's series sorted by label values.  Scrape-time callbacks
// run before the lock is taken — they call into code that holds its own
// locks — and w is written after it is released.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	families := r.families
	r.mu.Unlock()
	sampled := make([][]byte, len(families))
	for i, f := range families {
		if f.sample != nil {
			sampled[i] = f.sample(nil)
		}
	}
	var b []byte
	r.mu.Lock()
	for i, f := range families {
		b = append(append(append(append(append(b, "# HELP "...), f.name...), ' '), f.help...), '\n')
		b = append(append(append(append(append(b, "# TYPE "...), f.name...), ' '), f.typ...), '\n')
		b = append(b, sampled[i]...)
		keys := make([]key, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			b = f.appendSeries(b, k, f.series[k])
		}
	}
	r.mu.Unlock()
	_, err := w.Write(b)
	return err
}
