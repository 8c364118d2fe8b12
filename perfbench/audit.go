package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"decentmeter/internal/blockchain"
)

// auditResult counts what a sealed chain got wrong against the generated
// input. Every count is a violation.
type auditResult struct {
	Records   int // records on the chain
	Missing   int // acked (device, seq) not sealed
	Duplicate int // (device, seq) sealed more than once, extra copies
	Mismatch  int // sealed fields differ from what was generated
	Unknown   int // devices or seqs that were never generated
}

func (a auditResult) violations() int { return a.Missing + a.Duplicate + a.Mismatch + a.Unknown }

func (a auditResult) String() string {
	return fmt.Sprintf("%d records: %d missing, %d duplicated, %d mismatched, %d unknown",
		a.Records, a.Missing, a.Duplicate, a.Mismatch, a.Unknown)
}

// auditChain checks that every acked (device, seq) is sealed exactly once
// and that every sealed record equals the generated measurement. generated
// and acked hold each device's highest generated and acked seq; t0 is the
// load start the measurements were stamped from.
func auditChain(c *blockchain.Chain, f *fleet, t0 time.Time, generated, acked []uint64) auditResult {
	var a auditResult
	seen := make([][]uint8, len(f.devices))
	for i := range seen {
		seen[i] = make([]uint8, generated[i]+1)
	}
	for bi := 0; bi < c.Length(); bi++ {
		b, _ := c.Block(bi)
		for _, rec := range b.Records {
			a.Records++
			d := f.byID[rec.DeviceID]
			if d == nil || rec.Seq == 0 || rec.Seq > generated[d.idx] {
				a.Unknown++
				continue
			}
			if seen[d.idx][rec.Seq] > 0 {
				a.Duplicate++
			}
			seen[d.idx][rec.Seq]++
			if !sameRecord(rec, f.record(d, rec.Seq, t0)) {
				a.Mismatch++
			}
		}
	}
	for i, s := range seen {
		for seq := uint64(1); seq <= acked[i] && seq < uint64(len(s)); seq++ {
			if s[seq] == 0 {
				a.Missing++
			}
		}
	}
	return a
}

func sameRecord(a, b blockchain.Record) bool {
	return a.DeviceID == b.DeviceID && a.Seq == b.Seq &&
		a.HomeAggregator == b.HomeAggregator && a.ReportedVia == b.ReportedVia &&
		a.Timestamp.Equal(b.Timestamp) && a.Interval == b.Interval &&
		a.Current == b.Current && a.Voltage == b.Voltage &&
		a.Energy == b.Energy && a.Buffered == b.Buffered
}

// sameFiles reports whether every path holds the same bytes as the first.
func sameFiles(paths []string) (bool, error) {
	var first []byte
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return false, err
		}
		if i == 0 {
			first = b
		} else if !bytes.Equal(first, b) {
			return false, nil
		}
	}
	return true, nil
}
