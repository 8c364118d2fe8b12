package main

import (
	"fmt"
	"testing"
	"time"

	"decentmeter/internal/blockchain"
)

func TestSealTimes(t *testing.T) {
	w := workload{name: "t", devices: 1, period: time.Second, batch: 1}
	f := newFleet(w, 1, 1, 1)
	t0 := time.Unix(1_700_000_000, 0)
	var recs []blockchain.Record
	for seq := uint64(1); seq <= 7; seq++ {
		recs = append(recs, f.record(f.devices[0], seq, t0))
	}
	c := sealed(t, recs) // blocks of 3, 3 and 1 records
	polls := []poll{
		{t: t0.Add(10 * time.Second), blocks: 0},
		{t: t0.Add(11 * time.Second), blocks: 2},
		{t: t0.Add(12 * time.Second), blocks: 2},
	}
	lat, lag, unseen := sealTimes(c, polls)
	if len(lat) != 6 || len(lag) != 2 || unseen != 1 {
		t.Fatalf("got %d latencies, %d lags, %d unseen; want 6, 2, 1", len(lat), len(lag), unseen)
	}
	want := ms(t0.Add(11 * time.Second).Sub(recs[0].Timestamp))
	if lat[0] != want {
		t.Fatalf("first seal latency %v ms, want %v", lat[0], want)
	}
}

func TestLeastStolen(t *testing.T) {
	for _, tc := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0.3, 0.01, 0.2, 0.05, 0.02, 0.1, 0.4, 0.03, 0.06, 0.07}, []int{1}},
		{[]float64{0.3, 0.01, 0.2, 0.05, 0.02, 0.1, 0.4, 0.03, 0.06, 0.07, 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}, []int{1, 10}},
		{[]float64{0, 0.01, 0, 0, 0.05, 0, 0, 0}, []int{0}},
		{[]float64{0.5}, []int{0}},
	} {
		got := leastStolen(tc.steal)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("leastStolen(%v) = %v, want %v", tc.steal, got, tc.want)
		}
	}
}
