package main

import (
	"testing"
	"time"

	"decentmeter/internal/blockchain"
)

// sealed builds a chain holding the given records, a few per block.
func sealed(t *testing.T, recs []blockchain.Record) *blockchain.Chain {
	t.Helper()
	signer, err := blockchain.NewSigner(aggID)
	if err != nil {
		t.Fatal(err)
	}
	c := blockchain.NewChain(nil)
	at := time.Unix(1_700_000_000, 0)
	for len(recs) > 0 {
		n := min(3, len(recs))
		if _, err := c.Seal(signer, at, recs[:n]); err != nil {
			t.Fatal(err)
		}
		recs = recs[n:]
		at = at.Add(time.Second)
	}
	return c
}

func TestAuditChain(t *testing.T) {
	w := workload{name: "t", devices: 4, period: 250 * time.Millisecond, batch: 2}
	f := newFleet(w, 7, 1, 2)
	t0 := time.Unix(1_700_000_000, 0)
	generated := []uint64{6, 6, 6, 6}
	acked := []uint64{6, 6, 6, 4} // the last device's seqs 5 and 6 went unacked
	var good []blockchain.Record
	for _, d := range f.devices {
		for seq := uint64(1); seq <= acked[d.idx]; seq++ {
			good = append(good, f.record(d, seq, t0))
		}
	}

	cases := []struct {
		name   string
		edit   func([]blockchain.Record) []blockchain.Record
		expect auditResult
	}{
		{"clean", func(r []blockchain.Record) []blockchain.Record { return r }, auditResult{}},
		{"unacked extra sealed", func(r []blockchain.Record) []blockchain.Record {
			return append(r, f.record(f.devices[3], 5, t0))
		}, auditResult{}},
		{"missing", func(r []blockchain.Record) []blockchain.Record {
			return append(r[:7:7], r[8:]...)
		}, auditResult{Missing: 1}},
		{"duplicate", func(r []blockchain.Record) []blockchain.Record {
			return append(r, r[2])
		}, auditResult{Duplicate: 1}},
		{"missing and duplicate", func(r []blockchain.Record) []blockchain.Record {
			return append(append(r[:1:1], r[2:]...), r[5])
		}, auditResult{Missing: 1, Duplicate: 1}},
		{"mismatch", func(r []blockchain.Record) []blockchain.Record {
			out := append([]blockchain.Record(nil), r...)
			out[4].Energy++
			return out
		}, auditResult{Mismatch: 1}},
		{"unknown", func(r []blockchain.Record) []blockchain.Record {
			bad := f.record(f.devices[0], 1, t0)
			bad.DeviceID = "dev-intruder"
			return append(r, bad, f.record(f.devices[1], 7, t0))
		}, auditResult{Unknown: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := tc.edit(append([]blockchain.Record(nil), good...))
			got := auditChain(sealed(t, recs), f, t0, generated, acked)
			tc.expect.Records = len(recs)
			if got != tc.expect {
				t.Fatalf("audit = %+v, want %+v", got, tc.expect)
			}
		})
	}
}
