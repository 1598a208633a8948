package obs

import (
	"io"
	"strconv"
	"strings"
	"sync"
)

// Kind is a Prometheus metric family type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration takes a lock; recording never
// does — callers hold the instrument pointers they got back.
//
// Registration is get-or-create: asking for the same (name, labels)
// pair twice returns the same instrument, so a rebuilt query keeps
// accumulating into the histograms its previous generation created.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

type family struct {
	name string
	help string
	kind Kind

	mu     sync.Mutex
	order  []string       // label-set insertion order, for stable output
	series map[string]any // labels -> *Counter | *Gauge | *Histogram | func() float64
	// collect, when set, renders this family dynamically at scrape
	// time instead of from registered series (counter/gauge only).
	collect func(emit func(labels string, value float64))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Labels renders a label set ("k1", "v1", "k2", "v2", ...) into the
// pre-escaped string form instruments are registered under. Render
// once at registration time; never on the record path.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs.Labels: odd number of arguments")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) familyFor(name, help string, kind Kind) *family {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic("obs: metric " + name + " re-registered as " + kind.String() + " (was " + f.kind.String() + ")")
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, series: make(map[string]any)}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

func (f *family) getOrCreate(labels string, make func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok := f.series[labels]; ok {
		return v
	}
	v := make()
	f.series[labels] = v
	f.order = append(f.order, labels)
	return v
}

// Counter returns the counter for (name, labels), creating the
// family and series as needed. labels comes from Labels() or "".
func (r *Registry) Counter(name, help, labels string) *Counter {
	f := r.familyFor(name, help, KindCounter)
	return f.getOrCreate(labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge for (name, labels).
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	f := r.familyFor(name, help, KindGauge)
	return f.getOrCreate(labels, func() any { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers a gauge series evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	f := r.familyFor(name, help, KindGauge)
	f.getOrCreate(labels, func() any { return fn })
}

// Histogram returns the duration histogram for (name, labels). By
// convention the family name ends in _seconds: observations are
// recorded in nanoseconds and exposed in seconds.
func (r *Registry) Histogram(name, help, labels string) *Histogram {
	f := r.familyFor(name, help, KindHistogram)
	return f.getOrCreate(labels, func() any { return new(Histogram) }).(*Histogram)
}

// CollectorFunc registers a family whose series are produced at
// scrape time by fn — for values owned elsewhere (generation number,
// live cursor count, WAL depth) that would otherwise need a
// write-through gauge on every change. Counter and gauge kinds only.
func (r *Registry) CollectorFunc(name, help string, kind Kind, fn func(emit func(labels string, value float64))) {
	if kind == KindHistogram {
		panic("obs: CollectorFunc does not support histograms")
	}
	f := r.familyFor(name, help, kind)
	f.mu.Lock()
	f.collect = fn
	f.mu.Unlock()
}

// WritePrometheus renders every family in registration order as
// Prometheus text exposition (version 0.0.4). Histograms are
// rendered from a snapshot so cumulative buckets within one scrape
// are mutually consistent.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.render(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) render(b *strings.Builder) {
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(strings.ReplaceAll(strings.ReplaceAll(f.help, "\\", `\\`), "\n", `\n`))
	b.WriteByte('\n')
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.kind.String())
	b.WriteByte('\n')

	f.mu.Lock()
	collect := f.collect
	order := make([]string, len(f.order))
	copy(order, f.order)
	series := make(map[string]any, len(f.series))
	for k, v := range f.series {
		series[k] = v
	}
	f.mu.Unlock()

	if collect != nil {
		collect(func(labels string, value float64) {
			writeSample(b, f.name, labels, formatFloat(value))
		})
		return
	}
	for _, labels := range order {
		switch v := series[labels].(type) {
		case *Counter:
			writeSample(b, f.name, labels, strconv.FormatUint(v.Value(), 10))
		case *Gauge:
			writeSample(b, f.name, labels, strconv.FormatInt(v.Value(), 10))
		case func() float64:
			writeSample(b, f.name, labels, formatFloat(v()))
		case *Histogram:
			renderHistogram(b, f.name, labels, v.Snapshot())
		}
	}
}

// renderHistogram emits cumulative le-buckets (only at points where
// the cumulative count changes, plus +Inf), then _sum and _count.
// Bucket bounds and the sum are converted from ns to seconds.
func renderHistogram(b *strings.Builder, name, labels string, s HistSnapshot) {
	var cum uint64
	for i := range s.Buckets {
		n := s.Buckets[i]
		if n == 0 {
			continue
		}
		cum += n
		le := formatFloat(float64(bucketUpper(i)) / 1e9)
		writeSample(b, name+"_bucket", joinLabels(labels, `le="`+le+`"`), strconv.FormatUint(cum, 10))
	}
	writeSample(b, name+"_bucket", joinLabels(labels, `le="+Inf"`), strconv.FormatUint(cum, 10))
	// _count mirrors the +Inf bucket (not the racy live counter) so a
	// single scrape is internally consistent.
	writeSample(b, name+"_sum", labels, formatFloat(float64(s.SumNs)/1e9))
	writeSample(b, name+"_count", labels, strconv.FormatUint(cum, 10))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func writeSample(b *strings.Builder, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
