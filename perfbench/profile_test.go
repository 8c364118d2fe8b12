package main

import (
	"bytes"
	"crypto/sha256"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var sink [32]byte

//go:noinline
func spinSHA(d time.Duration) {
	buf := make([]byte, 4096)
	for end := time.Now().Add(d); time.Now().Before(end); {
		sink = sha256.Sum256(buf)
	}
}

func TestParseProfileAttributesCrypto(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	start := selfCPU()
	spinSHA(400 * time.Millisecond)
	cpu := selfCPU() - start
	pprof.StopCPUProfile()

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinSHA") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample of %d has spinSHA on its stack", len(p.samples))
	}
	shares, err := cpuShares(prof.Bytes(), cpu, "loadgen")
	if err != nil {
		t.Fatal(err)
	}
	// sha256 is the innermost layer frame of nearly every sample.
	if shares["cpu.crypto"] < 0.5 {
		t.Fatalf("cpu.crypto = %.2f, want most of the profile (shares %v)", shares["cpu.crypto"], shares)
	}
	if u := shares["cpu.unattributed"]; u < -0.5 || u > 1 {
		t.Fatalf("cpu.unattributed = %.2f out of range", u)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"decentmeter/internal/mqtt.(*Broker).route":           "mqtt",
		"decentmeter/internal/blockchain.(*Chain).Seal.func1": "blockchain",
		"decentmeter.RunFleet":                                "core",
		"main.(*server).handleReport":                         "meterd",
		"crypto/ecdsa.SignASN1":                               "crypto",
		"runtime.mallocgc":                                    "",
		"net.(*conn).Read":                                    "",
	} {
		if got := layerOf(fn, "meterd"); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
