package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"syscall"
	"time"

	"decentmeter"
)

// simDevices is the sim-fleet workload's fleet size.
const simDevices = 20000

// runSimFleet measures the simulation engine in-process: one RunFleet call
// of simDevices devices for the given simulated seconds. It reports
// records_per_s, cpu_us_per_record and rss_mb, the end-to-end metrics that
// apply to an engine with no network and no wall-clock acks; with trace,
// its per-layer figures instead. The audit is the run's own ledger check.
func runSimFleet(seed uint64, seconds int, trace bool) (*result, error) {
	var prof bytes.Buffer
	if trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	cpu0 := selfCPU()
	start := time.Now()
	res, err := decentmeter.RunFleet(decentmeter.FleetConfig{Devices: simDevices, Seconds: seconds, Seed: seed})
	wall := time.Since(start)
	cpu := selfCPU() - cpu0
	if trace {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}

	// Every window must verify, and nothing accepted may be lost,
	// duplicated or dropped on the way to the chain.
	var problems []string
	if res.RecordsLost != 0 || res.RecordsDuplicated != 0 {
		problems = append(problems, fmt.Sprintf("%d records lost, %d duplicated", res.RecordsLost, res.RecordsDuplicated))
	}
	if res.WindowsOK != res.WindowsClosed || res.WindowsClosed == 0 {
		problems = append(problems, fmt.Sprintf("%d of %d windows verified", res.WindowsOK, res.WindowsClosed))
	}
	if res.RecordsDropped != 0 {
		problems = append(problems, fmt.Sprintf("%d records dropped", res.RecordsDropped))
	}
	if res.RecordsSealed == 0 {
		problems = append(problems, "nothing sealed")
	}
	fmt.Fprintf(os.Stderr, "sim-fleet: %d reports delivered, %d measurements accepted, %d records sealed in %v wall (%v CPU); %d/%d windows OK\n",
		res.ReportsDelivered, res.MeasurementsAccepted, res.RecordsSealed, wall.Round(time.Millisecond), cpu.Round(time.Millisecond),
		res.WindowsOK, res.WindowsClosed)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "  problem: %s\n", p)
	}
	out := &result{
		Correct:   len(problems) == 0,
		Attempted: int(res.ReportsDelivered + res.UplinksLost),
		Failed:    len(problems),
	}
	sealed := float64(max(res.RecordsSealed, 1))
	cpuPerRec := float64(cpu) / 1e3 / sealed
	if !trace {
		out.Metrics = map[string]metric{
			"records_per_s":     {float64(res.RecordsSealed) / wall.Seconds(), "1/s"},
			"cpu_us_per_record": {cpuPerRec, "us"},
			"rss_mb":            {float64(ru.Maxrss) / 1024, "MB"},
		}
		return out, nil
	}
	L, err := cpuShares(prof.Bytes(), cpu, "loadgen")
	if err != nil {
		return nil, err
	}
	L["aggregator.ingest_s"] = res.IngestElapsed.Seconds()
	L["aggregator.ingest_reports_per_s"] = res.IngestPerSec
	L["aggregator.accepted_per_report"] = float64(res.MeasurementsAccepted) / float64(max(res.ReportsDelivered, 1))
	L["core.windows_ok"] = float64(res.WindowsOK)
	printBudget(os.Stdout, "sim-fleet", L, cpuPerRec, cpuPerRec)
	out.Metrics = map[string]metric{}
	for k, v := range L {
		unit := "frac"
		switch k {
		case "aggregator.ingest_s":
			unit = "s"
		case "aggregator.ingest_reports_per_s":
			unit = "1/s"
		case "aggregator.accepted_per_report", "core.windows_ok":
			unit = "count"
		}
		out.Metrics[k] = metric{v, unit}
	}
	return out, nil
}
