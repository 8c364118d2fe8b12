package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"decentmeter/internal/blockchain"
	"decentmeter/internal/protocol"
	"decentmeter/internal/units"
)

// aggID is the aggregator identity every workload's meterd runs as.
const aggID = "agg1"

// maxBatch caps the measurements one report carries, as devicesim does for
// its buffered tail.
const maxBatch = 64

// device is one virtual metering device. Everything about it derives from
// the workload seed: its ID, gateway, send phase and per-device draw.
type device struct {
	idx     int
	id      string
	gateway int
	phase   time.Duration
	baseUA  int64 // mean draw, microamps
	voltage units.Voltage

	reportTopic  string
	controlTopic string
}

// outage is a planned gateway disconnect, as offsets from the load start.
type outage struct {
	gateway    int
	start, end time.Duration
}

// fleet is the generated input of one run: the devices, their schedule and
// the measurement each (device, seq) carries. The audit recomputes expected
// chain records from the same fleet, so nothing generated needs storing.
type fleet struct {
	seed     uint64
	w        workload
	devices  []*device
	byID     map[string]*device
	outages  []outage
	interval time.Duration // measurement interval (period / batch)
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newFleet(w workload, seed uint64, seconds int, gateways int) *fleet {
	rng := rand.New(rand.NewPCG(seed, 0x6d65746572))
	f := &fleet{seed: seed, w: w, byID: make(map[string]*device, w.devices), interval: w.period / time.Duration(w.batch)}
	for i := 0; i < w.devices; i++ {
		var id string
		for {
			id = fmt.Sprintf("dev-%012x", rng.Uint64()>>16)
			if _, dup := f.byID[id]; !dup {
				break
			}
		}
		v := 5 * units.Volt
		if rng.IntN(3) == 0 {
			v = units.VoltsToVoltage(3.3)
		}
		d := &device{
			idx:          i,
			id:           id,
			gateway:      i % gateways,
			phase:        time.Duration(rng.Int64N(int64(w.period))),
			baseUA:       5000 + rng.Int64N(495000),
			voltage:      v,
			reportTopic:  protocol.ReportTopic(aggID, id),
			controlTopic: protocol.ControlTopic(aggID, id),
		}
		f.devices = append(f.devices, d)
		f.byID[id] = d
	}
	if w.outageEvery > 0 {
		// One gateway at a time drops for outageLen, every outageEvery,
		// from a seeded first offset; every outage ends (and leaves a
		// second to recover) before the load phase does.
		first := time.Second + time.Duration(rng.Int64N(int64(time.Second)))
		load := time.Duration(seconds) * time.Second
		for k := 0; ; k++ {
			start := first + time.Duration(k)*w.outageEvery
			end := start + w.outageLen
			if end+time.Second > load {
				break
			}
			f.outages = append(f.outages, outage{gateway: int((seed + uint64(k)) % uint64(gateways)), start: start, end: end})
		}
	}
	return f
}

// schedule returns gateway g's devices in send order within one period.
func (f *fleet) schedule(g int) []*device {
	var out []*device
	for _, d := range f.devices {
		if d.gateway == g {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].phase < out[j].phase })
	return out
}

// reports is how many reports each device sends in a load phase of length
// load: report k is due at phase + k*period.
func (f *fleet) reports(d *device, load time.Duration) int {
	if d.phase >= load {
		return 0
	}
	return int((load-d.phase-1)/f.w.period) + 1
}

// due is report k's scheduled send time, relative to the load start.
func (f *fleet) due(d *device, k int) time.Duration {
	return d.phase + time.Duration(k)*f.w.period
}

// offline reports whether gateway g is in a planned outage at offset t.
func (f *fleet) offline(g int, t time.Duration) bool {
	for _, o := range f.outages {
		if o.gateway == g && t >= o.start && t < o.end {
			return true
		}
	}
	return false
}

// reportOf maps a sequence number to the report that first carried it.
func (f *fleet) reportOf(seq uint64) int { return int((seq - 1) / uint64(f.w.batch)) }

// measurement is the reading device d takes as sequence number seq; t0 is
// the load start, and the stamp is the scheduled send time of the report
// that first carries it.
func (f *fleet) measurement(d *device, seq uint64, t0 time.Time) protocol.Measurement {
	k := f.reportOf(seq)
	due := f.due(d, k)
	noise := int64(mix(f.seed^uint64(d.idx)<<24^seq)%2001) - 1000 // ±10 %
	cur := units.Current(d.baseUA + d.baseUA*noise/10000)
	return protocol.Measurement{
		Seq:       seq,
		Timestamp: t0.Add(due),
		Interval:  f.interval,
		Current:   cur,
		Voltage:   d.voltage,
		Energy:    units.EnergyFromIVOver(cur, d.voltage, f.interval),
		Buffered:  f.offline(d.gateway, due),
	}
}

// record is the chain record meterd must seal for (d, seq).
func (f *fleet) record(d *device, seq uint64, t0 time.Time) blockchain.Record {
	m := f.measurement(d, seq, t0)
	return blockchain.Record{
		DeviceID:       d.id,
		Seq:            seq,
		HomeAggregator: aggID,
		ReportedVia:    aggID,
		Timestamp:      m.Timestamp,
		Interval:       m.Interval,
		Current:        m.Current,
		Voltage:        m.Voltage,
		Energy:         m.Energy,
		Buffered:       m.Buffered,
	}
}
