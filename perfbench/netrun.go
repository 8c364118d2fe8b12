package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"decentmeter/internal/blockchain"
)

// netRun is one meterd instance driven by the fleet's gateways.
type netRun struct {
	f      *fleet
	m      *meterd
	trace  bool
	t0     time.Time
	states []*devState
	gws    []*gateway
}

func (r *netRun) state(id string) *devState {
	d := r.f.byID[id]
	if d == nil {
		return nil
	}
	return r.states[d.idx]
}

// setUp starts meterd, connects every gateway and registers every device.
// It returns the time from process start until the fleet is admitted.
func setUp(env *benchEnv, f *fleet, dir string, trace bool) (*netRun, float64, error) {
	traceEvery := 0
	if trace {
		traceEvery = 1
	}
	m, err := startMeterd(env.meterdBin, dir, f.w, traceEvery)
	if err != nil {
		return nil, 0, err
	}
	r := &netRun{f: f, m: m, trace: trace, states: make([]*devState, len(f.devices))}
	for i := range r.states {
		r.states[i] = &devState{}
	}
	for g := 0; g < env.gateways; g++ {
		r.gws = append(r.gws, newGateway(r, g))
	}
	err = r.eachGateway(func(g *gateway) error {
		if err := g.dial(false); err != nil {
			return fmt.Errorf("gateway %d: %w", g.idx, err)
		}
		return g.register(30 * time.Second)
	})
	if err != nil {
		r.tearDown()
		return nil, 0, err
	}
	return r, time.Since(m.started).Seconds(), nil
}

func (r *netRun) eachGateway(fn func(*gateway) error) error {
	errs := make([]error, len(r.gws))
	var wg sync.WaitGroup
	for i, g := range r.gws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(g)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *netRun) closeClients() {
	for _, g := range r.gws {
		if c := g.current(); c != nil {
			c.Close()
		}
	}
}

// tearDown abandons a run: clients closed, meterd killed.
func (r *netRun) tearDown() {
	r.closeClients()
	r.m.kill()
}

// passResult is what one load phase measured.
type passResult struct {
	setupS      float64
	attempted   int
	failed      int
	audit       auditResult
	problems    []string
	records     int
	recordsPerS float64
	cpu         time.Duration
	cpuPerRec   float64 // µs
	rssMB       float64
	acks        []ackSample
	steal       []float64 // host steal share per latency window
	quiet       []int     // the least-stolen windows, which ack latency is taken over
	sealMs      []float64
	lateMs      []float64
	loadgenCPU  time.Duration
	layer       map[string]float64 // traced passes only
}

// pass sets the fleet up (setups times, keeping the last), runs one load
// phase of the given length, stops meterd and audits its chain.
func pass(env *benchEnv, f *fleet, load time.Duration, setups int, trace bool) (*passResult, error) {
	dir, err := os.MkdirTemp(env.workDir, f.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &passResult{layer: map[string]float64{}}
	var setupS []float64
	var r *netRun
	for i := 0; i < setups; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		run, s, err := setUp(env, f, sub, trace)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, s)
		if i < setups-1 {
			run.tearDown()
			continue
		}
		r = run
	}
	res.setupS = median(setupS)
	ok := false
	defer func() {
		if !ok {
			r.tearDown()
		}
	}()

	// Load phase.
	m := r.m
	r.t0 = time.Now().Add(20 * time.Millisecond).Round(0)
	cpu0, err := m.cpu()
	if err != nil {
		return nil, err
	}
	io0, err := m.io()
	if err != nil {
		return nil, err
	}
	met0, err := m.metrics()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	pl := startPoller(m, pollEvery)
	var prof chan profileResult
	if trace {
		prof = make(chan profileResult, 1)
		go func() {
			b, err := m.get(fmt.Sprintf("/debug/pprof/profile?seconds=%d", int(load/time.Second)))
			c, cerr := m.cpu()
			prof <- profileResult{b, c, errors.Join(err, cerr)}
		}()
	}
	for _, g := range r.gws {
		g.startWorkers()
	}
	schedErr := r.eachGateway(func(g *gateway) error { return g.schedule(load) })

	// Drain: wait until every report is acked, then give meterd one block
	// interval to seal the rest.
	generated := make([]uint64, len(f.devices))
	for _, d := range f.devices {
		generated[d.idx] = uint64(f.reports(d, load) * f.w.batch)
	}
	acked := make([]uint64, len(f.devices))
	drainBy := r.t0.Add(load + 10*time.Second)
	var drained time.Time
	for {
		all := true
		for i, st := range r.states {
			st.mu.Lock()
			acked[i] = st.acked
			st.mu.Unlock()
			if acked[i] < generated[i] {
				all = false
			}
		}
		if all || time.Now().After(drainBy) {
			drained = time.Now()
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, g := range r.gws {
		g.stopWorkers()
	}
	pl.waitSealed(f.w.block)
	cpu1, err := m.cpu()
	if err != nil {
		return nil, err
	}
	io1, err := m.io()
	if err != nil {
		return nil, err
	}
	met1, err := m.metrics()
	if err != nil {
		return nil, err
	}
	polls, backlogMax, journalB := pl.stop()
	res.loadgenCPU = selfCPU() - self0
	var pr profileResult
	if trace {
		pr = <-prof
		if pr.err != nil {
			return nil, fmt.Errorf("cpu profile: %w", pr.err)
		}
	}
	r.closeClients()
	ru, err := m.stop(60 * time.Second)
	ok = true
	if err != nil {
		return nil, err
	}
	res.rssMB = float64(ru.Maxrss) / 1024
	if schedErr != nil {
		return nil, fmt.Errorf("invalid run: %w", schedErr)
	}

	// Gather the gateways' samples.
	var st gwStats
	for _, g := range r.gws {
		s := &g.stats
		st.acks = append(st.acks, s.acks...)
		st.lateMs = append(st.lateMs, s.lateMs...)
		st.pubackUs = append(st.pubackUs, s.pubackUs...)
		st.controlUs = append(st.controlUs, s.controlUs...)
		st.recoverMs = append(st.recoverMs, s.recoverMs...)
		st.dialMs = append(st.dialMs, s.dialMs...)
		st.subMs = append(st.subMs, s.subMs...)
		st.encodeNs += s.encodeNs
		st.encodes += s.encodes
		st.decodeNs += s.decodeNs
		st.decodes += s.decodes
		st.reportB += s.reportB
		st.published += s.published
		st.pubErrors += s.pubErrors
		st.badControl += s.badControl
		st.resumeMiss += s.resumeMiss
	}
	res.acks, res.lateMs = st.acks, st.lateMs

	// Audit the chain.
	for _, d := range f.devices {
		res.attempted += f.reports(d, load)
	}
	unacked := 0
	for _, d := range f.devices {
		unacked += int((generated[d.idx] - min(acked[d.idx], generated[d.idx])) / uint64(f.w.batch))
	}
	if unacked > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d reports unacked at the drain deadline", unacked))
	}
	if st.pubErrors > 0 || st.badControl > 0 || st.resumeMiss > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d publish errors, %d nacks or bad control messages, %d sessions not resumed",
			st.pubErrors, st.badControl, st.resumeMiss))
	}
	readStart := time.Now()
	chain, err := blockchain.ReadFile(m.chainPath, nil)
	readTime := time.Since(readStart)
	if err != nil {
		res.problems = append(res.problems, fmt.Sprintf("chain does not load: %v", err))
		res.audit.Missing = sumU(acked)
		chain = blockchain.NewChain(nil)
	} else {
		res.audit = auditChain(chain, f, r.t0, generated, acked)
	}
	if res.audit.violations() > 0 {
		res.problems = append(res.problems, "audit: "+res.audit.String())
	}
	if n := f.w.replicas; n > 1 {
		paths := []string{m.chainPath}
		for k := 1; k < n; k++ {
			paths = append(paths, fmt.Sprintf("%s.r%d", m.chainPath, k))
		}
		same, err := sameFiles(paths)
		if err != nil || !same {
			res.problems = append(res.problems, fmt.Sprintf("replica chain files differ (err %v)", err))
			res.audit.Mismatch++
		}
	}
	res.failed = unacked + st.pubErrors + st.badControl + st.resumeMiss + res.audit.violations()
	if res.failed == 0 && len(res.problems) > 0 {
		res.failed = 1
	}

	lat, lag, _ := sealTimes(chain, polls)
	res.steal = stealByWindow(polls, r.t0, load, runtime.NumCPU())
	res.quiet = leastStolen(res.steal)
	res.sealMs = lat
	res.records = res.audit.Records - res.audit.Duplicate - res.audit.Unknown
	res.recordsPerS = float64(res.records) / drained.Sub(r.t0).Seconds()
	res.cpu = cpu1 - cpu0
	if res.records > 0 {
		res.cpuPerRec = float64(res.cpu) / 1e3 / float64(res.records)
	}
	if !trace {
		return res, nil
	}

	// Per-layer figures from the traced pass.
	L := res.layer
	reports := float64(max(st.published, 1))
	L["mqtt.puback_p50_us"] = quantile(st.pubackUs, 0.5)
	L["mqtt.puback_p99_us"] = quantile(st.pubackUs, 0.99)
	L["mqtt.dial_ms"] = median(st.dialMs)
	L["mqtt.subscribe_ms"] = median(st.subMs)
	L["mqtt.recover_p50_ms"] = median(st.recoverMs)
	for _, c := range []string{"publishes", "fanout_deliveries", "retransmits", "session_resumes", "dup_redeliveries", "wal_checkpoints"} {
		L["mqtt."+c] = met1.Counters["mqtt."+c] - met0.Counters["mqtt."+c]
	}
	dio := io1.sub(io0)
	L["meterd.read_syscalls_per_report"] = dio.syscr / reports
	L["meterd.write_syscalls_per_report"] = dio.syscw / reports
	L["meterd.bytes_in_per_report"] = dio.rchar / reports
	L["meterd.bytes_out_per_report"] = dio.wchar / reports
	L["protocol.encode_ns"] = st.encodeNs / max(st.encodes, 1)
	L["protocol.decode_ns"] = st.decodeNs / max(st.decodes, 1)
	L["protocol.report_bytes"] = st.reportB / max(st.encodes, 1)
	L["meterd.control_p50_us"] = median(st.controlUs)
	for _, c := range []string{"reports_ingested", "reports_nacked", "records_dropped"} {
		L["meterd."+c] = met1.Counters[aggID+"."+c] - met0.Counters[aggID+"."+c]
	}
	L["meterd.seal_backlog_max"] = backlogMax
	for _, s := range []string{"device_uplink", "shard_ingest", "window_close", "seal_attach"} {
		L["meterd."+s+"_us_mean"] = histMean(met0, met1, "trace.stage."+s+"_us")
	}
	for _, c := range []string{"decides", "votes", "view_changes", "decided_records"} {
		L["consensus."+c] = met1.Counters["consensus."+c] - met0.Counters["consensus."+c]
	}
	L["consensus.decide_us_mean"] = histMean(met0, met1, "consensus.decide_us")
	if chain.Length() > 0 {
		L["blockchain.records_per_block"] = float64(chain.TotalRecords()) / float64(chain.Length())
	}
	L["blockchain.seal_lag_ms"] = median(lag)
	if n := chain.TotalRecords(); n > 0 {
		L["blockchain.verify_us_per_record"] = float64(readTime) / 1e3 / float64(n)
		if fi, err := os.Stat(m.chainPath); err == nil {
			L["blockchain.file_bytes_per_record"] = float64(fi.Size()) / float64(n)
		}
	}
	L["store.journal_bytes_per_report"] = journalB / reports
	L["loadgen.late_p99_ms"] = quantile(res.lateMs, 0.99)
	L["loadgen.late_max_ms"] = quantile(res.lateMs, 1)
	L["loadgen.cpu_us_per_report"] = float64(res.loadgenCPU) / 1e3 / reports
	shares, err := cpuShares(pr.data, pr.cpu-cpu0, "meterd")
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for k, v := range shares {
		L[k] = v
	}
	return res, nil
}

type profileResult struct {
	data []byte
	cpu  time.Duration // meterd CPU at the end of the profile
	err  error
}

func histMean(a, b snapshot, name string) float64 {
	ha, hb := a.Histograms[name], b.Histograms[name]
	n := float64(hb.Count) - float64(ha.Count)
	if n <= 0 {
		return 0
	}
	return (hb.Mean*float64(hb.Count) - ha.Mean*float64(ha.Count)) / n
}

func sumU(xs []uint64) int {
	n := 0
	for _, x := range xs {
		n += int(x)
	}
	return n
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pollEvery is the /metrics sampling period: the resolution of seal
// latency. Each poll costs meterd about 0.15 ms of CPU.
const pollEvery = 20 * time.Millisecond

// poller samples meterd's /metrics on a fixed period during the load: the
// sealed block count (for seal latency), the seal backlog gauge, and, for a
// durable workload, the session journal's size; and the host's steal.
type poller struct {
	m       *meterd
	stopCh  chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	polls   []poll
	backlog float64
	journal float64 // bytes appended to the journal, checkpoints included
}

func startPoller(m *meterd, every time.Duration) *poller {
	p := &poller{m: m, stopCh: make(chan struct{}), done: make(chan struct{})}
	go p.loop(every)
	return p
}

func (p *poller) loop(every time.Duration) {
	defer close(p.done)
	t := time.NewTicker(every)
	defer t.Stop()
	var lastSize int64
	if p.m.journal != "" {
		if fi, err := os.Stat(p.m.journal); err == nil {
			lastSize = fi.Size()
		}
	}
	for {
		select {
		case <-p.stopCh:
			return
		case <-t.C:
		}
		s, err := p.m.metrics()
		now := time.Now()
		if err != nil {
			continue
		}
		var grown float64
		if p.m.journal != "" {
			if fi, err := os.Stat(p.m.journal); err == nil {
				sz := fi.Size()
				grown = float64(sz - lastSize)
				if sz < lastSize {
					grown = float64(sz) // a checkpoint rewrote the journal
				}
				lastSize = sz
			}
		}
		p.mu.Lock()
		p.polls = append(p.polls, poll{t: now, blocks: s.Counters[aggID+".blocks"], steal: stealTicks()})
		p.backlog = max(p.backlog, s.Gauges[aggID+".seal_backlog"])
		p.journal += grown
		p.mu.Unlock()
	}
}

// waitSealed gives meterd's seal ticker, which fires every block interval,
// one full interval to seal what is left once every report is acked: it
// returns when that interval has passed and a further block was seen, or
// two seconds later. Records a later seal catches are still audited.
func (p *poller) waitSealed(block time.Duration) {
	base := p.lastBlocks()
	start := time.Now()
	for {
		waited := time.Since(start)
		if waited > block+100*time.Millisecond && p.lastBlocks() > base || waited > block+2*time.Second {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *poller) lastBlocks() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.polls) == 0 {
		return 0
	}
	return p.polls[len(p.polls)-1].blocks
}

func (p *poller) stop() ([]poll, float64, float64) {
	close(p.stopCh)
	<-p.done
	return p.polls, p.backlog, p.journal
}
