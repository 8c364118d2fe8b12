package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"decentmeter/internal/blockchain"
)

// poll is one observation of meterd's sealed block count.
type poll struct {
	t      time.Time
	blocks float64
	steal  float64
}

// stealTicks is the time, in clock ticks over all processors, the
// hypervisor has run other guests while this machine's were runnable.
func stealTicks() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

// sealTimes maps each chain block to the first poll at which meterd's
// block counter covered it. It returns per-record seal latencies (creation
// stamp to that poll) of the records reported live, not buffered through
// an outage, per-block seal lags (header timestamp to that poll),
// and the number of records whose block no poll saw.
func sealTimes(c *blockchain.Chain, polls []poll) (latMs, lagMs []float64, unseen int) {
	p := 0
	for bi := 0; bi < c.Length(); bi++ {
		b, _ := c.Block(bi)
		for p < len(polls) && polls[p].blocks < float64(bi+1) {
			p++
		}
		if p == len(polls) {
			unseen += len(b.Records)
			continue
		}
		seen := polls[p].t
		lagMs = append(lagMs, ms(seen.Sub(b.Header.Timestamp)))
		for _, rec := range b.Records {
			if !rec.Buffered {
				latMs = append(latMs, ms(seen.Sub(rec.Timestamp)))
			}
		}
	}
	return latMs, lagMs, unseen
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ackSample is one report's ack latency, keyed by when it was due.
type ackSample struct {
	at time.Duration // due time, from the load start
	ms float64
}

// Latency windows. A virtual machine on a shared host stalls whenever the
// hypervisor runs other guests ("steal"), and ack latency then measures the
// host rather than the program. The run is cut into quarter-second windows
// of due time, and the ack latency median is taken over the tenth of them
// in which the host stole the least processor time.
const latWindow = 250 * time.Millisecond

// stealByWindow returns, for each latency window of a load phase of length
// load starting at t0, the share of processor time stolen by the host,
// from the poller's /proc/stat samples.
func stealByWindow(polls []poll, t0 time.Time, load time.Duration, nproc int) []float64 {
	out := make([]float64, int((load+latWindow-1)/latWindow))
	for w := range out {
		start, end := t0.Add(time.Duration(w)*latWindow), t0.Add(time.Duration(w+1)*latWindow)
		first, last := -1, -1
		for i, p := range polls {
			if first < 0 && !p.t.Before(start) {
				first = i
			}
			if p.t.Before(end) || p.t.Equal(end) {
				last = i
			}
		}
		if first < 0 || last <= first {
			continue
		}
		span := polls[last].t.Sub(polls[first].t).Seconds() * float64(nproc) * clockTicks
		out[w] = (polls[last].steal - polls[first].steal) / span
	}
	return out
}

// leastStolen returns the tenth of the windows (at least one) with the
// least steal, earliest first among equals, in window order.
func leastStolen(steal []float64) []int {
	byLeast := make([]int, len(steal))
	for w := range byLeast {
		byLeast[w] = w
	}
	sort.SliceStable(byLeast, func(i, j int) bool { return steal[byLeast[i]] < steal[byLeast[j]] })
	pick := byLeast[:min(len(steal), max(1, len(steal)/10))]
	sort.Ints(pick)
	return pick
}

// windowQuantile is the q-quantile of the ack latencies due in the given
// windows.
func windowQuantile(samples []ackSample, windows []int, q float64) float64 {
	in := map[int]bool{}
	for _, w := range windows {
		in[w] = true
	}
	var xs []float64
	for _, s := range samples {
		if in[int(s.at/latWindow)] {
			xs = append(xs, s.ms)
		}
	}
	return quantile(xs, q)
}

func ackMs(samples []ackSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}
