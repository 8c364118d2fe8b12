// Command perfbench is decentmeter's end-to-end benchmark. It starts the
// real meterd binary, drives a seeded fleet of virtual devices at it over a
// few MQTT gateway connections on an open-loop schedule, stops meterd with
// SIGTERM so that it writes its chain, and audits the chain against what
// was generated. The last line of standard output is one JSON object with
// the run's metrics. See README.md.
//
//	perfbench -meterd <bin> -work <dir> --workload fleet --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// workload is one traffic mix against meterd. Every workload runs meterd
// with -shards 8.
type workload struct {
	name        string
	devices     int
	period      time.Duration // each device reports once per period
	batch       int           // fresh measurements per report
	tail        bool          // reports carry the device's unacked tail
	durable     bool          // persistent sessions, meterd -session
	outageEvery time.Duration // a gateway drops this often (0 = never)
	outageLen   time.Duration
	block       time.Duration // meterd -block
	replicas    int           // meterd -replicas
}

var workloads = []workload{
	{
		name: "fleet", devices: 2000, period: 250 * time.Millisecond, batch: 1,
		block: time.Second, replicas: 1,
	},
	{
		name: "replicated", devices: 1000, period: time.Second, batch: 64,
		block: 250 * time.Millisecond, replicas: 4,
	},
	{
		name: "durable", devices: 2000, period: 400 * time.Millisecond, batch: 1,
		tail: true, durable: true, outageEvery: 4 * time.Second, outageLen: time.Second,
		block: time.Second, replicas: 1,
	},
}

// maxLateP99Ms is how far behind schedule the generator may run at its
// 99th percentile before a run is invalid rather than a result.
const maxLateP99Ms = 50

// setups is how many times an untraced run sets the fleet up; setup_s is
// their median.
const setups = 9

type benchEnv struct {
	meterdBin string
	workDir   string
	gateways  int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fleet, replicated, durable or sim-fleet")
	seed := flag.Uint64("seed", 1, "workload seed: device IDs, draws, send phases, outage schedule")
	seconds := flag.Int("seconds", 20, "length of the measured load phase")
	trace := flag.Int("trace", 0, "1: per-layer run (traced meterd, CPU profile, timed calls)")
	meterdBin := flag.String("meterd", "", "meterd binary")
	work := flag.String("work", "", "directory for run files")
	flag.Parse()

	// The generator shares the box with meterd: it never asks for more
	// than two processors, nor opens more connections than processors.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, 2))
	// Fewer generator collections keep its pauses out of the schedule.
	debug.SetGCPercent(400)
	env := &benchEnv{meterdBin: *meterdBin, gateways: min(nproc, 2)}
	if *work != "" {
		// One directory per invocation holds every pass's files.
		err := os.MkdirAll(*work, 0o755)
		if err == nil {
			env.workDir, err = os.MkdirTemp(*work, "run-")
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	cleanUp := func() {
		reapAll()
		if env.workDir != "" {
			os.RemoveAll(env.workDir)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanUp()
		os.Exit(1)
	}()

	res, err := run(env, *name, *seed, *seconds, *trace == 1)
	cleanUp()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(env *benchEnv, name string, seed uint64, seconds int, trace bool) (*result, error) {
	if seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if name == "sim-fleet" {
		return runSimFleet(seed, seconds, trace)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if env.meterdBin == "" || env.workDir == "" {
		return nil, errors.New("-meterd and -work are required")
	}
	// meterd runs inside its run directory.
	bin, err := filepath.Abs(env.meterdBin)
	if err != nil {
		return nil, err
	}
	env.meterdBin = bin
	f := newFleet(*w, seed, seconds, env.gateways)
	load := time.Duration(seconds) * time.Second

	if !trace {
		p, err := pass(env, f, load, setups, false)
		if err != nil {
			return nil, err
		}
		if err := valid(p); err != nil {
			return nil, err
		}
		report(os.Stderr, w.name, p)
		return &result{
			Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed,
			Metrics: map[string]metric{
				"setup_s":           {p.setupS, "s"},
				"ack_p50_ms":        {windowQuantile(p.acks, p.quiet, 0.5), "ms"},
				"seal_p50_ms":       {quantile(p.sealMs, 0.5), "ms"},
				"seal_p99_ms":       {quantile(p.sealMs, 0.99), "ms"},
				"records_per_s":     {p.recordsPerS, "1/s"},
				"cpu_us_per_record": {p.cpuPerRec, "us"},
				"rss_mb":            {p.rssMB, "MB"},
			},
		}, nil
	}

	// A traced run measures the same input twice: untraced, for the
	// baseline of the tracing overhead, then traced.
	base, err := pass(env, f, load, 1, false)
	if err != nil {
		return nil, err
	}
	if err := valid(base); err != nil {
		return nil, err
	}
	tr, err := pass(env, f, load, 1, true)
	if err != nil {
		return nil, err
	}
	if err := valid(tr); err != nil {
		return nil, err
	}
	report(os.Stderr, w.name+" (traced)", tr)
	L := tr.layer
	if base.cpuPerRec > 0 {
		L["trace.overhead_frac"] = tr.cpuPerRec/base.cpuPerRec - 1
	}
	L["audit.failed_frac"] = float64(base.failed+tr.failed) / float64(max(base.attempted+tr.attempted, 1))
	// The tail is reported, not gated: it follows the host's steal.
	L["ack.p99_ms"] = quantile(ackMs(base.acks), 0.99)
	L["box.steal_frac"] = (mean(base.steal) + mean(tr.steal)) / 2
	printBudget(os.Stdout, w.name, L, tr.cpuPerRec, base.cpuPerRec)
	return &result{
		Correct:   base.failed == 0 && tr.failed == 0,
		Attempted: base.attempted + tr.attempted,
		Failed:    base.failed + tr.failed,
		Metrics:   layerMetrics(L),
	}, nil
}

// valid rejects a run in which the generator, not meterd, fell behind.
func valid(p *passResult) error {
	if late := quantile(p.lateMs, 0.99); late > maxLateP99Ms {
		return fmt.Errorf("invalid run: the generator ran %.1f ms behind schedule at p99 (limit %d ms)", late, maxLateP99Ms)
	}
	if len(p.acks) == 0 || len(p.sealMs) == 0 {
		return fmt.Errorf("invalid run: no acked or sealed reports (%v)", p.problems)
	}
	return nil
}

func report(w *os.File, name string, p *passResult) {
	fmt.Fprintf(w, "%s: %d reports attempted, %d failed; %d records sealed, %.0f/s; ack p50 %.3f ms p99 %.3f ms; seal p50 %.1f ms p99 %.1f ms; meterd %.2f s CPU, %.1f us/record, %.1f MB; generator late p99 %.3f ms\n",
		name, p.attempted, p.failed, p.records, p.recordsPerS,
		quantile(ackMs(p.acks), 0.5), quantile(ackMs(p.acks), 0.99), quantile(p.sealMs, 0.5), quantile(p.sealMs, 0.99),
		p.cpu.Seconds(), p.cpuPerRec, p.rssMB, quantile(p.lateMs, 0.99))
	fmt.Fprintf(w, "  host steal %.3f; ack latency over the %d least-stolen of %d windows: p50 %.3f ms, p99 %.3f ms\n",
		mean(p.steal), len(p.quiet), len(p.steal), windowQuantile(p.acks, p.quiet, 0.5), windowQuantile(p.acks, p.quiet, 0.99))
	for _, s := range p.problems {
		fmt.Fprintf(w, "  problem: %s\n", s)
	}
}

// layerUnits gives every per-layer metric its unit; a traced run reports
// exactly these. Times that exist on only some workloads (the gateway
// recovery of durable, the consensus decide time of replicated) would read
// 0 on every run of the others, so they go to the budget table instead.
var layerUnits = map[string]string{
	"mqtt.puback_p50_us":     "us",
	"mqtt.puback_p99_us":     "us",
	"mqtt.dial_ms":           "ms",
	"mqtt.subscribe_ms":      "ms",
	"mqtt.publishes":         "count",
	"mqtt.fanout_deliveries": "count",
	"mqtt.retransmits":       "count",
	"mqtt.session_resumes":   "count",
	"mqtt.dup_redeliveries":  "count",
	"mqtt.wal_checkpoints":   "count",

	"meterd.read_syscalls_per_report":  "count",
	"meterd.write_syscalls_per_report": "count",
	"meterd.bytes_in_per_report":       "B",
	"meterd.bytes_out_per_report":      "B",
	"meterd.control_p50_us":            "us",
	"meterd.reports_ingested":          "count",
	"meterd.reports_nacked":            "count",
	"meterd.records_dropped":           "count",
	"meterd.seal_backlog_max":          "count",
	"meterd.device_uplink_us_mean":     "us",
	"meterd.shard_ingest_us_mean":      "us",
	"meterd.window_close_us_mean":      "us",
	"meterd.seal_attach_us_mean":       "us",

	"protocol.encode_ns":    "ns",
	"protocol.decode_ns":    "ns",
	"protocol.report_bytes": "B",

	"consensus.decides":         "count",
	"consensus.votes":           "count",
	"consensus.view_changes":    "count",
	"consensus.decided_records": "count",

	"blockchain.records_per_block":     "count",
	"blockchain.seal_lag_ms":           "ms",
	"blockchain.verify_us_per_record":  "us",
	"blockchain.file_bytes_per_record": "B",

	"store.journal_bytes_per_report": "B",

	"cpu.syscall":         "frac",
	"cpu.unattributed":    "frac",
	"trace.overhead_frac": "frac",

	"loadgen.late_p99_ms":       "ms",
	"loadgen.late_max_ms":       "ms",
	"loadgen.cpu_us_per_report": "us",

	"ack.p99_ms":        "ms",
	"box.steal_frac":    "frac",
	"audit.failed_frac": "frac",
}

func init() {
	for _, l := range layers {
		layerUnits["cpu."+l] = "frac"
	}
}

func layerMetrics(L map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for k, u := range layerUnits {
		out[k] = metric{L[k], u}
	}
	return out
}

// printBudget prints where meterd's CPU per sealed record goes: each
// layer's share of the traced profile times the traced cost per record,
// the remainder no profile sample accounts for, and the untraced cost.
func printBudget(w *os.File, name string, L map[string]float64, traced, untraced float64) {
	fmt.Fprintf(w, "CPU budget per sealed record, workload %s\n", name)
	fmt.Fprintf(w, "  %-14s %10s %7s\n", "layer", "us/record", "share")
	type row struct {
		name  string
		share float64
	}
	var rows []row
	for k, v := range L {
		if len(k) > 4 && k[:4] == "cpu." && k != "cpu.syscall" && k != "cpu.unattributed" && v > 0 {
			rows = append(rows, row{k[4:], v})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].share > rows[j].share })
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %10.2f %6.1f%%\n", r.name, r.share*traced, 100*r.share)
	}
	fmt.Fprintf(w, "  %-14s %10.2f %6.1f%%\n", "unattributed", L["cpu.unattributed"]*traced, 100*L["cpu.unattributed"])
	fmt.Fprintf(w, "  %-14s %10.2f\n", "total traced", traced)
	fmt.Fprintf(w, "  %-14s %10.2f   (tracing overhead %+.1f%%)\n", "untraced", untraced, 100*L["trace.overhead_frac"])
	fmt.Fprintf(w, "  in system calls: %.1f%% of CPU (across layers)\n", 100*L["cpu.syscall"])
	if v := L["consensus.decide_us_mean"]; v > 0 {
		fmt.Fprintf(w, "  consensus decide: %.0f us mean\n", v)
	}
	if v := L["mqtt.recover_p50_ms"]; v > 0 {
		fmt.Fprintf(w, "  gateway recovery: %.1f ms p50 (redial to offline backlog acked)\n", v)
	}
}
