package blockchain

import (
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// withProcs runs f with GOMAXPROCS set to procs, restoring it afterwards.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// rootSizes are the block sizes the striped root is checked at: the
// smallest blocks, both sides of the parallel threshold, both sides of
// every power of two up to 2^14, and one size that is nowhere near a power
// of two.
func rootSizes() []int {
	sizes := []int{1, 2, 3, parallelRootMin - 1, parallelRootMin, parallelRootMin + 1, 16001}
	for p := 4; p <= 1<<14; p <<= 1 {
		sizes = append(sizes, p-1, p, p+1)
	}
	return sizes
}

// TestRecordsRootMatchesReference pins the striped root to the plain
// sequential fold at every interesting size, sequentially (GOMAXPROCS=1)
// and on the parallel path (GOMAXPROCS 2 and 4). The chain is reused
// across sizes, so shrinking and growing scratch buffers are covered too.
func TestRecordsRootMatchesReference(t *testing.T) {
	recs := pipelineRecords(0, 1<<14+1)
	sizes := rootSizes()
	want := make(map[int]Hash)
	for _, n := range sizes {
		want[n] = MerkleRoot(leafHashes(recs[:n]))
	}
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			c := NewChain(nil)
			for _, n := range sizes {
				if got, w := c.recordsRoot(recs[:n]), want[n]; got != w {
					t.Errorf("GOMAXPROCS=%d n=%d: striped root %x, reference %x", procs, n, got[:8], w[:8])
				}
			}
		})
	}
}

// goldenRoot5000 is the Merkle root of pipelineRecords(0, 5000), as
// computed by the sequential fold before roots were striped. Changing it
// breaks every chain file already written.
const goldenRoot5000 = "eb36043f9166c2566a88b693ac26579be8dede87fb263b878644cccd96e49ab8"

func TestRecordsRootGolden(t *testing.T) {
	recs := pipelineRecords(0, 5000)
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			got := NewChain(nil).recordsRoot(recs)
			if h := hex.EncodeToString(got[:]); h != goldenRoot5000 {
				t.Errorf("GOMAXPROCS=%d: root %s, golden %s", procs, h, goldenRoot5000)
			}
		})
	}
}

// TestStripedRootDetectsTamper mutates one record of a block above the
// parallel threshold, once inside the first stripe and once inside the
// last, partial stripe: ImportBatch must refuse the group with
// ErrBadMerkleRoot and Verify must locate the tamper at that height.
func TestStripedRootDetectsTamper(t *testing.T) {
	const n = 5000 // 19 full stripes and a partial one of 136 records
	for _, idx := range []int{3, n - 5} {
		t.Run(fmt.Sprintf("record=%d", idx), func(t *testing.T) {
			withProcs(2, func() {
				src, signer, auth := pipelineChain(t)
				var group []*Block
				for i, size := range []int{2, n, 3} {
					blk, err := src.Seal(signer, t0.Add(time.Duration(i)*time.Second), pipelineRecords(uint64(i*n), size))
					if err != nil {
						t.Fatal(err)
					}
					group = append(group, blk)
				}
				tampered := *group[1]
				tampered.Records = append([]Record(nil), group[1].Records...)
				tampered.Records[idx].Energy++
				bad := []*Block{group[0], &tampered, group[2]}
				if err := NewChain(auth).ImportBatch(bad); !errors.Is(err, ErrBadMerkleRoot) {
					t.Fatalf("ImportBatch of tampered group: %v, want ErrBadMerkleRoot", err)
				}

				dst := NewChain(auth)
				if err := dst.ImportBatch(group); err != nil {
					t.Fatal(err)
				}
				blk, _ := dst.Block(1)
				blk.Records[idx].Energy++
				height, err := dst.Verify()
				if !errors.Is(err, ErrTampered) || height != 1 {
					t.Fatalf("Verify = %d, %v; want height 1 with ErrTampered", height, err)
				}
			})
		})
	}
}

// TestRecordsRootSequentialAllocFree pins the sub-threshold root to zero
// allocations once the chain's scratch buffers have grown.
func TestRecordsRootSequentialAllocFree(t *testing.T) {
	recs := pipelineRecords(0, parallelRootMin-1)
	c := NewChain(nil)
	c.recordsRoot(recs)
	if allocs := testing.AllocsPerRun(20, func() { c.recordsRoot(recs) }); allocs != 0 {
		t.Fatalf("sub-threshold recordsRoot allocates %.1f times per call", allocs)
	}
}
