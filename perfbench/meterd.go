package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat (100 on every Linux ABI Go supports).
const clockTicks = 100

// meterd is one running meterd child process, the system under test.
type meterd struct {
	cmd       *exec.Cmd
	log       *os.File
	mqttAddr  string
	teleAddr  string
	chainPath string
	journal   string
	started   time.Time
	http      *http.Client
	done      chan struct{} // closed once Wait has returned
	waitErr   error
}

// live tracks every started meterd so an interrupted benchmark can reap
// them all.
var live struct {
	sync.Mutex
	set map[*meterd]bool
}

func reapAll() {
	live.Lock()
	var all []*meterd
	for m := range live.set {
		all = append(all, m)
	}
	live.Unlock()
	for _, m := range all {
		m.kill()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startMeterd launches bin in dir with the workload's flags and waits until
// both its MQTT and telemetry listeners accept connections.
func startMeterd(bin, dir string, w workload, traceEvery int) (*meterd, error) {
	mqttAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	teleAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	m := &meterd{
		mqttAddr:  mqttAddr,
		teleAddr:  teleAddr,
		chainPath: filepath.Join(dir, "agg1.chain"),
		http:      &http.Client{Timeout: 30 * time.Second},
		done:      make(chan struct{}),
	}
	args := []string{
		"-id", aggID, "-addr", mqttAddr, "-telemetry", teleAddr,
		"-chain", m.chainPath,
		"-slots", strconv.Itoa(w.devices),
		"-tmeasure", w.period.String(),
		"-trace-every", strconv.Itoa(traceEvery),
		"-shards", "8",
		"-replicas", strconv.Itoa(w.replicas),
		"-block", w.block.String(),
	}
	if w.durable {
		m.journal = filepath.Join(dir, "sessions.wal")
		args = append(args, "-session", m.journal)
	}
	m.log, err = os.Create(filepath.Join(dir, "meterd.log"))
	if err != nil {
		return nil, err
	}
	m.cmd = exec.Command(bin, args...)
	m.cmd.Dir = dir
	m.cmd.Stdout = m.log
	m.cmd.Stderr = m.log
	// The child dies with the benchmark even if the benchmark is killed.
	m.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	m.started = time.Now()
	if err := m.cmd.Start(); err != nil {
		m.log.Close()
		return nil, fmt.Errorf("start meterd: %w", err)
	}
	live.Lock()
	if live.set == nil {
		live.set = make(map[*meterd]bool)
	}
	live.set[m] = true
	live.Unlock()
	go func() {
		m.waitErr = m.cmd.Wait()
		close(m.done)
	}()
	for _, addr := range []string{mqttAddr, teleAddr} {
		if err := m.waitListening(addr, 30*time.Second); err != nil {
			m.kill()
			return nil, err
		}
	}
	return m, nil
}

func (m *meterd) waitListening(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-m.done:
			return fmt.Errorf("meterd exited during start-up: %v (see %s)", m.waitErr, m.log.Name())
		default:
		}
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("meterd not listening on %s after %v", addr, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (m *meterd) forget() {
	live.Lock()
	delete(live.set, m)
	live.Unlock()
	m.log.Close()
}

// kill stops meterd at once and waits for it.
func (m *meterd) kill() {
	_ = m.cmd.Process.Kill()
	<-m.done
	m.forget()
}

// stop sends SIGTERM, so that meterd seals what it holds and writes its
// chain files, and waits for it to exit. It returns the child's rusage.
func (m *meterd) stop(timeout time.Duration) (*syscall.Rusage, error) {
	if err := m.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		m.kill()
		return nil, fmt.Errorf("signal meterd: %w", err)
	}
	select {
	case <-m.done:
	case <-time.After(timeout):
		m.kill()
		return nil, fmt.Errorf("meterd did not exit within %v of SIGTERM", timeout)
	}
	m.forget()
	if m.waitErr != nil {
		return nil, fmt.Errorf("meterd exit: %w", m.waitErr)
	}
	ru, _ := m.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, errors.New("meterd rusage unavailable")
	}
	return ru, nil
}

// snapshot is the subset of meterd's /metrics JSON the benchmark reads.
type snapshot struct {
	Counters   map[string]float64 `json:"counters"`
	Gauges     map[string]float64 `json:"gauges"`
	Histograms map[string]struct {
		Count uint64  `json:"count"`
		Mean  float64 `json:"mean"`
	} `json:"histograms"`
}

func (m *meterd) get(path string) ([]byte, error) {
	resp, err := m.http.Get("http://" + m.teleAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (m *meterd) metrics() (snapshot, error) {
	var s snapshot
	body, err := m.get("/metrics")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(body, &s)
}

// cpu returns meterd's user+system CPU time so far, from /proc/<pid>/stat.
func (m *meterd) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", m.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// ioCounts are meterd's /proc/<pid>/io counters: read and write syscalls
// and the bytes they moved.
type ioCounts struct{ syscr, syscw, rchar, wchar float64 }

func (m *meterd) io() (ioCounts, error) {
	var c ioCounts
	f, err := os.Open(fmt.Sprintf("/proc/%d/io", m.cmd.Process.Pid))
	if err != nil {
		return c, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseFloat(v, 64)
		switch k {
		case "syscr":
			c.syscr = n
		case "syscw":
			c.syscw = n
		case "rchar":
			c.rchar = n
		case "wchar":
			c.wchar = n
		}
	}
	return c, sc.Err()
}

func (c ioCounts) sub(o ioCounts) ioCounts {
	return ioCounts{c.syscr - o.syscr, c.syscw - o.syscw, c.rchar - o.rchar, c.wchar - o.wchar}
}
