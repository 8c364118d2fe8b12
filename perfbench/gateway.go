package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"decentmeter/internal/mqtt"
	"decentmeter/internal/protocol"
)

// workersPerGateway bounds the QoS 1 publishes one gateway keeps in flight.
// Each device is pinned to one worker, so its reports reach meterd in
// sequence order.
const workersPerGateway = 128

// queuePerWorker is the backlog a worker absorbs while meterd stalls; with
// about 8 devices per worker it covers seconds of schedule, and the
// scheduler counts a full queue as having fallen behind.
const queuePerWorker = 256

// devState is one device's report and ack bookkeeping.
type devState struct {
	mu         sync.Mutex
	registered bool
	next       uint64 // highest seq measured
	acked      uint64 // highest seq acked
	pending    []pending
	// recoverTarget is the seq the device's post-outage flush must get
	// acked; 0 when the device is not recovering.
	recoverTarget uint64
}

// pending is a published report awaiting the ReportAck covering maxSeq.
type pending struct {
	maxSeq uint64
	due    time.Time
	puback time.Time // when Publish returned; zero until then
	flush  bool      // a post-outage flush, timed by recovery instead
}

type job struct {
	d     *device
	k     int // report index; -1 for a post-outage flush
	due   time.Time
	flush bool
}

// gateway is one MQTT connection multiplexing a share of the fleet, as a
// field gateway relays its radios' reports.
type gateway struct {
	idx     int
	r       *netRun
	devs    []*device // in send order
	workers []chan job
	wg      sync.WaitGroup

	mu     sync.Mutex
	client *mqtt.Client
	down   bool // inside a planned outage

	regLeft atomic.Int64
	regDone chan struct{}

	// recovery of the current outage
	recLeft  atomic.Int64
	recStart time.Time

	stats gwStats
}

// gwStats are the samples one gateway collects; the ack handler and the
// workers append under mu.
type gwStats struct {
	mu         sync.Mutex
	acks       []ackSample
	lateMs     []float64
	pubackUs   []float64
	controlUs  []float64
	recoverMs  []float64
	encodeNs   float64
	encodes    float64
	decodeNs   float64
	decodes    float64
	reportB    float64
	published  int
	pubErrors  int
	badControl int // nacks and unparseable control messages
	resumeMiss int
	dialMs     []float64
	subMs      []float64
}

func newGateway(r *netRun, idx int) *gateway {
	g := &gateway{idx: idx, r: r, devs: r.f.schedule(idx), regDone: make(chan struct{})}
	g.workers = make([]chan job, workersPerGateway)
	for i := range g.workers {
		g.workers[i] = make(chan job, queuePerWorker)
	}
	return g
}

func (g *gateway) clientID() string { return fmt.Sprintf("gw-%d-%x", g.idx, g.r.f.seed) }

func (g *gateway) current() *mqtt.Client {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.client
}

// dial opens the gateway's MQTT session. A clean dial subscribes every
// device's control topic; a resumed durable session already holds them.
func (g *gateway) dial(resume bool) error {
	start := time.Now()
	c, err := mqtt.Dial(g.r.m.mqttAddr, mqtt.ClientOptions{
		ClientID:     g.clientID(),
		CleanSession: !g.r.f.w.durable,
		KeepAlive:    30 * time.Second,
		OnMessage:    g.onControl,
	})
	if err != nil {
		return err
	}
	dialed := time.Now()
	if resume {
		if !c.SessionPresent() {
			g.stats.mu.Lock()
			g.stats.resumeMiss++
			g.stats.mu.Unlock()
		}
	} else {
		const perPacket = 100
		for i := 0; i < len(g.devs); i += perPacket {
			end := min(i+perPacket, len(g.devs))
			subs := make([]mqtt.Subscription, 0, end-i)
			for _, d := range g.devs[i:end] {
				subs = append(subs, mqtt.Subscription{Filter: d.controlTopic, QoS: mqtt.QoS1})
			}
			if _, err := c.Subscribe(subs...); err != nil {
				c.Close()
				return fmt.Errorf("subscribe: %w", err)
			}
		}
	}
	g.stats.mu.Lock()
	g.stats.dialMs = append(g.stats.dialMs, ms(dialed.Sub(start)))
	if !resume {
		g.stats.subMs = append(g.stats.subMs, ms(time.Since(dialed)))
	}
	g.stats.mu.Unlock()
	g.mu.Lock()
	g.client = c
	g.down = false
	g.mu.Unlock()
	return nil
}

// register admits every device and returns once meterd acked them all.
func (g *gateway) register(timeout time.Duration) error {
	g.regLeft.Store(int64(len(g.devs)))
	c := g.current()
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	const senders = 16
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(g.devs); i += senders {
				payload, err := protocol.Encode(protocol.Register{DeviceID: g.devs[i].id})
				if err == nil {
					err = c.Publish(protocol.RegisterTopic(aggID), payload, mqtt.QoS1, false)
				}
				if err != nil {
					select {
					case errs <- fmt.Errorf("register %s: %w", g.devs[i].id, err):
					default:
					}
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	select {
	case <-g.regDone:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("gateway %d: %d devices unregistered after %v", g.idx, g.regLeft.Load(), timeout)
	}
}

// onControl handles meterd's control messages on the client's reader.
func (g *gateway) onControl(_ string, payload []byte) {
	now := time.Now()
	msg, err := protocol.Decode(payload)
	if g.r.trace {
		dt := float64(time.Since(now))
		g.stats.mu.Lock()
		g.stats.decodeNs += dt
		g.stats.decodes++
		g.stats.mu.Unlock()
	}
	if err != nil {
		g.badControl()
		return
	}
	switch m := msg.(type) {
	case protocol.RegisterAck:
		st := g.r.state(m.DeviceID)
		if st == nil {
			g.badControl()
			return
		}
		st.mu.Lock()
		first := !st.registered
		st.registered = true
		st.mu.Unlock()
		if first && g.regLeft.Add(-1) == 0 {
			close(g.regDone)
		}
	case protocol.ReportAck:
		st := g.r.state(m.DeviceID)
		if st == nil {
			g.badControl()
			return
		}
		g.onAck(st, m.Seq, now)
	default:
		g.badControl()
	}
}

func (g *gateway) badControl() {
	g.stats.mu.Lock()
	g.stats.badControl++
	g.stats.mu.Unlock()
}

func (g *gateway) onAck(st *devState, seq uint64, now time.Time) {
	var acks []ackSample
	var controls []float64
	st.mu.Lock()
	if seq > st.acked {
		st.acked = seq
	}
	kept := st.pending[:0]
	for _, p := range st.pending {
		if p.maxSeq > seq {
			kept = append(kept, p)
			continue
		}
		if p.flush {
			continue
		}
		acks = append(acks, ackSample{at: p.due.Sub(g.r.t0), ms: ms(now.Sub(p.due))})
		if !p.puback.IsZero() {
			controls = append(controls, float64(now.Sub(p.puback))/1e3)
		}
	}
	st.pending = kept
	recovered := st.recoverTarget > 0 && st.acked >= st.recoverTarget
	if recovered {
		st.recoverTarget = 0
	}
	st.mu.Unlock()
	if recovered && g.recLeft.Add(-1) == 0 {
		g.stats.mu.Lock()
		g.stats.recoverMs = append(g.stats.recoverMs, ms(now.Sub(g.recStart)))
		g.stats.mu.Unlock()
	}
	if len(acks) > 0 {
		g.stats.mu.Lock()
		g.stats.acks = append(g.stats.acks, acks...)
		if g.r.trace {
			g.stats.controlUs = append(g.stats.controlUs, controls...)
		}
		g.stats.mu.Unlock()
	}
}

// startWorkers runs the publishers; stopWorkers drains and ends them.
func (g *gateway) startWorkers() {
	for i := range g.workers {
		g.wg.Add(1)
		go g.worker(g.workers[i])
	}
}

func (g *gateway) stopWorkers() {
	for _, ch := range g.workers {
		close(ch)
	}
	g.wg.Wait()
}

func (g *gateway) worker(jobs <-chan job) {
	defer g.wg.Done()
	var buf []byte
	batch := make([]protocol.Measurement, 0, maxBatch)
	f, t0 := g.r.f, g.r.t0
	for j := range jobs {
		st := g.r.states[j.d.idx]
		var lo, hi uint64
		st.mu.Lock()
		if f.w.tail {
			// Durable devices resend their unacked tail, oldest first.
			if !j.flush && uint64(j.k+1) > st.next {
				st.next = uint64(j.k + 1)
			}
			lo, hi = st.acked+1, min(st.next, st.acked+maxBatch)
		} else {
			lo, hi = uint64(j.k*f.w.batch+1), uint64((j.k+1)*f.w.batch)
			st.next = hi
		}
		if lo > hi {
			st.mu.Unlock()
			continue
		}
		idx := len(st.pending)
		st.pending = append(st.pending, pending{maxSeq: hi, due: j.due, flush: j.flush})
		st.mu.Unlock()
		batch = batch[:0]
		for s := lo; s <= hi; s++ {
			batch = append(batch, f.measurement(j.d, s, t0))
		}
		encStart := time.Now()
		var err error
		buf, err = protocol.AppendEncode(buf[:0], protocol.Report{DeviceID: j.d.id, Measurements: batch})
		encNs := float64(time.Since(encStart))
		if err != nil {
			g.fail(st, hi)
			continue
		}
		c := g.current()
		if c == nil {
			g.dropPending(st, hi)
			continue // inside an outage: the tail carries it later
		}
		pubStart := time.Now()
		err = c.Publish(j.d.reportTopic, buf, mqtt.QoS1, false)
		pubEnd := time.Now()
		if err != nil {
			// A publish cut short by a planned outage is no failure: the
			// device's tail resends it.
			g.mu.Lock()
			planned := g.down || g.client != c
			g.mu.Unlock()
			if planned {
				g.dropPending(st, hi)
			} else {
				g.fail(st, hi)
			}
			continue
		}
		st.mu.Lock()
		// The entry may have been acked (and removed) already; match it
		// by seq rather than trusting idx.
		if idx < len(st.pending) && st.pending[idx].maxSeq == hi {
			st.pending[idx].puback = pubEnd
		}
		st.mu.Unlock()
		g.stats.mu.Lock()
		g.stats.published++
		if g.r.trace {
			g.stats.encodeNs += encNs
			g.stats.encodes++
			g.stats.reportB += float64(len(buf))
			g.stats.pubackUs = append(g.stats.pubackUs, float64(pubEnd.Sub(pubStart))/1e3)
		}
		g.stats.mu.Unlock()
	}
}

// dropPending forgets the pending entry for a report that never reached
// meterd; its measurements stay in the device's tail.
func (g *gateway) dropPending(st *devState, maxSeq uint64) {
	st.mu.Lock()
	for i, p := range st.pending {
		if p.maxSeq == maxSeq {
			st.pending = append(st.pending[:i], st.pending[i+1:]...)
			break
		}
	}
	st.mu.Unlock()
}

func (g *gateway) fail(st *devState, maxSeq uint64) {
	g.dropPending(st, maxSeq)
	g.stats.mu.Lock()
	g.stats.pubErrors++
	g.stats.mu.Unlock()
}

// schedule runs the gateway's open loop over the load phase: report k of
// device d is due at t0 + phase(d) + k*period whatever meterd does. During a
// planned outage the connection is closed and due reports only extend the
// devices' tails; at its end the gateway redials and flushes.
func (g *gateway) schedule(load time.Duration) error {
	f, t0 := g.r.f, g.r.t0
	var outs []outage
	for _, o := range f.outages {
		if o.gateway == g.idx {
			outs = append(outs, o)
		}
	}
	inOutage := false
	var lateMs []float64
	defer func() {
		g.stats.mu.Lock()
		g.stats.lateMs = append(g.stats.lateMs, lateMs...)
		g.stats.mu.Unlock()
	}()
	for k := 0; ; k++ {
		any := false
		for _, d := range g.devs {
			off := f.due(d, k)
			if off >= load {
				continue
			}
			any = true
			if len(outs) > 0 && !inOutage && off >= outs[0].start {
				g.sleepUntil(t0.Add(outs[0].start))
				g.goDown()
				inOutage = true
			}
			if inOutage && off >= outs[0].end {
				g.sleepUntil(t0.Add(outs[0].end))
				if err := g.recover(); err != nil {
					return err
				}
				inOutage = false
				outs = outs[1:]
			}
			due := t0.Add(off)
			g.sleepUntil(due)
			if inOutage {
				st := g.r.states[d.idx]
				st.mu.Lock()
				st.next = uint64(k + 1)
				st.mu.Unlock()
				continue
			}
			w := g.workers[d.idx%len(g.workers)]
			select {
			case w <- job{d: d, k: k, due: due}:
			default:
				return fmt.Errorf("gateway %d fell behind: worker queue full at %v", g.idx, off)
			}
			lateMs = append(lateMs, ms(time.Since(due)))
		}
		if !any {
			return nil
		}
	}
}

func (g *gateway) sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func (g *gateway) goDown() {
	g.mu.Lock()
	c := g.client
	g.client = nil
	g.down = true
	g.mu.Unlock()
	c.Close()
}

// recover redials with the durable session and flushes every device's
// offline tail; recovery ends when the last device's tail is acked.
func (g *gateway) recover() error {
	g.recStart = time.Now()
	targets := 0
	for _, d := range g.devs {
		st := g.r.states[d.idx]
		st.mu.Lock()
		if st.next > st.acked {
			st.recoverTarget = st.next
			targets++
		}
		st.mu.Unlock()
	}
	g.recLeft.Store(int64(targets))
	if err := g.dial(true); err != nil {
		return fmt.Errorf("gateway %d redial: %w", g.idx, err)
	}
	for _, d := range g.devs {
		w := g.workers[d.idx%len(g.workers)]
		select {
		case w <- job{d: d, k: -1, due: g.recStart, flush: true}:
		default:
			return fmt.Errorf("gateway %d fell behind: worker queue full at flush", g.idx)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
