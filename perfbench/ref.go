package main

import (
	"bufio"
	"encoding/json"
	"io"
	"runtime"
	"syscall"
	"unsafe"

	"taccc/internal/obs"
)

const (
	// refEvents is how many events the kernel's encoding part encodes
	// per run, about 100 ms on a 2-core Xeon VM.
	refEvents = 25000
	// The memory part sums refRows rows of refRowWords words, each at a
	// pseudo-random row of a refRegionMB region, about 70 ms.
	refRegionMB = 64
	refRowWords = 256
	refRows     = 150000
)

var refNames = []string{"request", "uplink", "queue", "service", "downlink"}

// refKernel is the reference kernel op_ref_ratio divides every op's wall
// time by. It is fixed work written against the standard library only,
// so no change to the repository's packages can alter it, and its time
// tracks only the host. It has two parts, one per resource the ops lean
// on: encoding span-like maps with json.Marshal into a buffered discard
// writer, the way a JSONL sink encodes them (CPU and allocator), and
// summing 2 KB rows at pseudo-random places in a 64 MB region, the way a
// plan scans rows of its n x m matrices (memory). The region is mapped
// outside the Go heap, so it leaves peak_heap_mb alone.
type refKernel struct {
	region []uint64
	mapped []byte
	sum    uint64
}

// newRefKernel maps the kernel's memory region and writes every word of
// it once, so no run of the kernel pays for page faults.
func newRefKernel() (*refKernel, error) {
	b, err := syscall.Mmap(-1, 0, refRegionMB<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	k := &refKernel{mapped: b, region: unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)}
	for i := range k.region {
		k.region[i] = uint64(i)
	}
	return k, nil
}

// close unmaps the region.
func (k *refKernel) close() error { return syscall.Munmap(k.mapped) }

// run runs the kernel once, after a collection so that no garbage of the
// op before it is swept inside it, and returns its wall milliseconds.
func (k *refKernel) run(clock obs.Clock) (float64, error) {
	runtime.GC()
	w := bufio.NewWriter(io.Discard)
	t0 := clock.NowMs()
	for i := 0; i < refEvents; i++ {
		line, err := json.Marshal(map[string]interface{}{
			"kind":   "span",
			"trace":  i / 5,
			"span":   i,
			"parent": i - i%5,
			"name":   refNames[i%len(refNames)],
			"start":  float64(i) * 0.37,
			"dur":    float64(i%97) * 1.25,
			"edge":   i % 50,
		})
		if err != nil {
			return 0, err
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	rows := uint64(len(k.region) / refRowWords)
	x := uint64(88172645463325252)
	for r := 0; r < refRows; r++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		base := int(x%rows) * refRowWords
		for _, v := range k.region[base : base+refRowWords] {
			k.sum += v
		}
	}
	took := clock.NowMs() - t0
	return took, w.Flush()
}
