// Package telemetry replaces the Grafana deployment of the paper's testbed
// ("We use Grafana to monitor live data transmission"): a process-local
// metrics registry (counters, gauges, histograms), a ring-buffer time-series
// store for live traces, a sampled report-journey stage tracer, an HTTP API
// serving JSON and Prometheus text exposition, and CSV export for offline
// plotting.
//
// Every instrument is hot-path safe: Counter, Gauge and Histogram are built
// on sync/atomic (no mutex anywhere on the observe path), ShardedCounter
// stripes its cells across cache lines so concurrent ingest shards never
// contend on one word, and the Tracer's unsampled fast path is a single
// atomic add. Registration (Registry.Counter etc.) still takes the registry
// mutex — callers on hot paths pre-resolve instruments once at setup.
package telemetry

import (
	"encoding/csv"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The common case — Inc and
// integral Add — is a single atomic add on an integer cell; fractional
// deltas CAS a separate float64-bits cell. The zero value is ready to use.
type Counter struct {
	ints     atomic.Uint64 // whole deltas accumulate here: one atomic add
	fracBits atomic.Uint64 // math.Float64bits of the fractional remainder
}

// Add increments the counter by d (>= 0; negative deltas are ignored).
func (c *Counter) Add(d float64) {
	if d < 0 {
		return
	}
	if w := uint64(d); float64(w) == d {
		c.ints.Add(w)
		return
	}
	for {
		old := c.fracBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if c.fracBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.ints.Add(1) }

// AddInt increments by a non-negative integer delta without any float
// conversion — the cheapest bulk path for record counts.
func (c *Counter) AddInt(n uint64) { c.ints.Add(n) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	return float64(c.ints.Load()) + math.Float64frombits(c.fracBits.Load())
}

// Gauge is a value that can move both ways, stored as atomic float64 bits.
// The zero value reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d (either sign) with a CAS loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// shardedStripes is the stripe count of every ShardedCounter. Power of two
// so the hint fold is a mask, sized for more stripes than the build boxes
// have cores.
const shardedStripes = 16

// stripe pads one counter cell out to a cache line so neighbouring stripes
// never false-share.
type stripe struct {
	n atomic.Uint64
	_ [56]byte
}

// ShardedCounter is a lock-free counter striped across cache-line-padded
// cells: writers on different stripes (pass the ingest shard index, worker
// id, or any stable hint) never touch the same word, and Value merges the
// stripes at read time. The zero value is ready to use.
type ShardedCounter struct {
	stripes [shardedStripes]stripe
}

// Inc adds one on the hinted stripe.
func (s *ShardedCounter) Inc(hint int) {
	s.stripes[uint(hint)%shardedStripes].n.Add(1)
}

// Add adds n on the hinted stripe.
func (s *ShardedCounter) Add(hint int, n uint64) {
	s.stripes[uint(hint)%shardedStripes].n.Add(n)
}

// Value merges all stripes.
func (s *ShardedCounter) Value() float64 {
	var sum uint64
	for i := range s.stripes {
		sum += s.stripes[i].n.Load()
	}
	return float64(sum)
}

// Histogram accumulates observations into fixed buckets. Observe is
// lock-free: bucket counts and the total are atomic adds, sum/min/max are
// CAS loops on float64 bits, and no path allocates. Readers (Summary,
// Quantile, snapshotting) see a possibly-torn-but-monotone view, which is
// fine for telemetry.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending, immutable after New
	counts  []atomic.Uint64
	total   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
}

// NewHistogram creates a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{
		bounds: bs,
		counts: make([]atomic.Uint64, len(bs)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value without taking a lock.
func (h *Histogram) Observe(v float64) {
	// Binary search inlined: sort.SearchFloat64s is alloc-free but the
	// closure-free loop keeps Observe flat for the report path.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Summary reports count, mean, min and max.
func (h *Histogram) Summary() (count uint64, mean, min, max float64) {
	total := h.total.Load()
	if total == 0 {
		return 0, 0, 0, 0
	}
	sum := math.Float64frombits(h.sumBits.Load())
	return total, sum / float64(total),
		math.Float64frombits(h.minBits.Load()),
		math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-quantile (0..1) from the bucket midpoints,
// clamped to the observed [min, max]: a bucket midpoint can lie outside
// the values that actually landed in it (a p95 above the maximum, or the
// first bound for values far below it).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	minSeen := math.Float64frombits(h.minBits.Load())
	maxSeen := math.Float64frombits(h.maxBits.Load())
	v := h.bucketQuantile(q, total, maxSeen)
	// A concurrent first Observe may have counted before publishing its
	// min/max; clamp only once both are real.
	if minSeen <= maxSeen {
		v = min(max(v, minSeen), maxSeen)
	}
	return v
}

// bucketQuantile is the unclamped bucket estimate of the q-quantile over
// total observations.
func (h *Histogram) bucketQuantile(q float64, total uint64, maxSeen float64) float64 {
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			switch {
			// Order matters: with zero bounds the single bucket satisfies
			// both i == 0 and i == len(h.bounds); only the overflow arm is
			// safe to take (h.bounds[0] does not exist).
			case i == len(h.bounds):
				return maxSeen
			case i == 0:
				return h.bounds[0]
			default:
				return (h.bounds[i-1] + h.bounds[i]) / 2
			}
		}
	}
	return maxSeen
}

// boundsEqual reports whether a histogram's registered bounds match a
// (pre-sort) requested set.
func (h *Histogram) boundsEqual(bounds []float64) bool {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	if len(bs) != len(h.bounds) {
		return false
	}
	for i, b := range bs {
		if h.bounds[i] != b {
			return false
		}
	}
	return true
}

// Point is one time-series sample.
type Point struct {
	T time.Duration `json:"t_ns"`
	V float64       `json:"v"`
}

// Series is a bounded ring of points for one named trace. The backing
// array grows geometrically up to the capacity instead of being
// preallocated, so registering tens of thousands of mostly-idle
// device series (fleet scale) costs bytes proportional to the points
// actually appended.
type Series struct {
	mu   sync.Mutex
	name string
	buf  []Point
	cap  int
	head int
	size int
}

// NewSeries creates a series retaining up to capacity points.
func NewSeries(name string, capacity int) *Series {
	if capacity < 1 {
		capacity = 1
	}
	return &Series{name: name, cap: capacity}
}

// Append records (t, v), evicting the oldest point when full.
func (s *Series) Append(t time.Duration, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.size == s.cap {
		s.buf[s.head] = Point{t, v}
		s.head = (s.head + 1) % len(s.buf)
		return
	}
	if s.size == len(s.buf) {
		// Below capacity the ring has never wrapped (head is 0), so growth
		// is a straight copy.
		n := len(s.buf) * 2
		if n < 16 {
			n = 16
		}
		if n > s.cap {
			n = s.cap
		}
		next := make([]Point, n)
		copy(next, s.buf)
		s.buf = next
	}
	s.buf[(s.head+s.size)%len(s.buf)] = Point{t, v}
	s.size++
}

// Points returns the retained points oldest-first, optionally filtered to
// [from, to) (pass to <= from for everything).
func (s *Series) Points(from, to time.Duration) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, 0, s.size)
	for i := 0; i < s.size; i++ {
		p := s.buf[(s.head+i)%len(s.buf)]
		if to > from && (p.T < from || p.T >= to) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Registry names and serves all instruments.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	sharded    map[string]*ShardedCounter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	series     map[string]*Series
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		sharded:    make(map[string]*ShardedCounter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		series:     make(map[string]*Series),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// ShardedCounter returns (creating if needed) the named sharded counter.
// Sharded counters share the counter namespace in snapshots.
func (r *Registry) ShardedCounter(name string) *ShardedCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.sharded[name]
	if !ok {
		c = &ShardedCounter{}
		r.sharded[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. Re-registering
// an existing name with different bounds panics: silently serving the old
// buckets would answer quantile queries from the wrong distribution, which
// is strictly worse than crashing at wiring time.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
		return h
	}
	if !h.boundsEqual(bounds) {
		panic("telemetry: histogram " + strconv.Quote(name) + " re-registered with different bounds")
	}
	return h
}

// Series returns (creating if needed) the named series.
func (r *Registry) Series(name string, capacity int) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = NewSeries(name, capacity)
		r.series[name] = s
	}
	return s
}

// lookupSeries returns the named series without creating it.
func (r *Registry) lookupSeries(name string) (*Series, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	return s, ok
}

// SeriesNames lists registered series, sorted.
func (r *Registry) SeriesNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.series))
	for n := range r.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HistogramSummary is the scalar digest of one histogram in a Snapshot.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot is the scalar state served at /metrics. Sharded counters are
// merged into Counters.
type Snapshot struct {
	Counters   map[string]float64          `json:"counters"`
	Gauges     map[string]float64          `json:"gauges"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
}

// Snapshot captures all counters, gauges and histogram digests.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Counters:   make(map[string]float64, len(r.counters)+len(r.sharded)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSummary, len(r.histograms)),
	}
	for n, c := range r.counters {
		snap.Counters[n] = c.Value()
	}
	for n, c := range r.sharded {
		snap.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		snap.Gauges[n] = g.Value()
	}
	for n, h := range r.histograms {
		count, mean, min, max := h.Summary()
		snap.Histograms[n] = HistogramSummary{
			Count: count, Mean: mean, Min: min, Max: max,
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		}
	}
	return snap
}

// WriteCSV dumps one or more series side by side: a t_seconds column plus
// one column per series (empty cells where a series has no point at that
// instant). Suited to gnuplot/spreadsheet reproduction of the figures.
func WriteCSV(w io.Writer, series ...*Series) error {
	cw := csv.NewWriter(w)
	header := []string{"t_seconds"}
	type row map[int]float64
	byT := map[time.Duration]row{}
	var ts []time.Duration
	for i, s := range series {
		header = append(header, s.name)
		for _, p := range s.Points(0, 0) {
			r, ok := byT[p.T]
			if !ok {
				r = row{}
				byT[p.T] = r
				ts = append(ts, p.T)
			}
			r[i] = p.V
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, t := range ts {
		rec := make([]string, len(series)+1)
		rec[0] = strconv.FormatFloat(t.Seconds(), 'f', 3, 64)
		for i := range series {
			if v, ok := byT[t][i]; ok {
				rec[i+1] = strconv.FormatFloat(v, 'f', 4, 64)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
