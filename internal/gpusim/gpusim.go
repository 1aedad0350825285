// Package gpusim is a deterministic software simulator of a CUDA-class
// GPU, standing in for the NVIDIA GTX TITAN the paper runs on.
//
// SMiLer's GPU contribution is algorithmic — an index layout that maps
// one posting list to one thread block, a compressed warping matrix
// sized for shared memory, two-phase filter/verify to avoid warp
// divergence, and block-wise k-selection. The simulator exercises those
// code paths faithfully:
//
//   - Kernels are launched over a grid of blocks; blocks execute
//     concurrently on a goroutine worker pool (real parallelism), each
//     carrying a private cycle counter.
//   - A cost model charges cycles for compute ops, global-memory and
//     shared-memory traffic, and serialized divergent paths, so the
//     *relative* timing shape of the paper's experiments (index ≫ scan,
//     banded ≫ unbanded) is reproduced in simulated seconds.
//   - Device memory is a hard budget: Malloc fails when the index no
//     longer fits, which drives the "max sensors per GPU" experiment
//     (paper Fig. 12c).
//   - Per-block shared memory is a hard budget too, which is what
//     forces the 2×(2ρ+2) compressed warping matrix of Algorithm 2.
//
// Simulated time is computed as Σ(block cycles) / (SMs × clock): blocks
// are assumed to be spread evenly over the streaming multiprocessors,
// the same throughput model used by back-of-envelope CUDA sizing.
package gpusim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"smiler/internal/fault"
)

// Common errors.
var (
	ErrOutOfMemory       = errors.New("gpusim: device out of memory")
	ErrSharedMemExceeded = errors.New("gpusim: shared memory per block exceeded")
	ErrFreed             = errors.New("gpusim: buffer already freed")
)

// Config describes the simulated device. The default approximates the
// GeForce GTX TITAN used in the paper (14 SMX, 6 GB, 48 KB shared
// memory per block, ~837 MHz).
type Config struct {
	SMs               int     // streaming multiprocessors
	CoresPerSM        int     // CUDA cores per SM (thread-parallel lanes)
	ClockHz           float64 // core clock
	GlobalMemBytes    int64   // device memory capacity
	SharedMemPerBlock int     // shared memory budget per block, bytes

	// Cost model, in cycles.
	ComputeCyclesPerOp   float64 // one fused arithmetic op
	GlobalCyclesPerWord  float64 // one coalesced 8-byte global access
	SharedCyclesPerWord  float64 // one 8-byte shared-memory access
	LaunchOverheadCycles float64 // fixed cost per kernel launch
}

// DefaultConfig returns a GTX-TITAN-like device configuration.
func DefaultConfig() Config {
	return Config{
		SMs:                  14,
		CoresPerSM:           192,
		ClockHz:              837e6,
		GlobalMemBytes:       6 << 30,
		SharedMemPerBlock:    48 << 10,
		ComputeCyclesPerOp:   1,
		GlobalCyclesPerWord:  4, // amortized coalesced bandwidth cost
		SharedCyclesPerWord:  1,
		LaunchOverheadCycles: 5000,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SMs <= 0 || c.CoresPerSM <= 0 || c.ClockHz <= 0 ||
		c.GlobalMemBytes <= 0 || c.SharedMemPerBlock <= 0 {
		return fmt.Errorf("gpusim: non-positive field in config %+v", c)
	}
	return nil
}

// Device is a simulated GPU. All methods are safe for concurrent use.
type Device struct {
	cfg Config

	cycles   atomic.Int64 // accumulated block cycles, fixed-point ×256
	launches atomic.Int64
	blocks   atomic.Int64

	// Per-category cycle counters (fixed-point ×256) for profiling.
	computeCycles atomic.Int64
	globalCycles  atomic.Int64
	sharedCycles  atomic.Int64
	divergeCycles atomic.Int64
	launchCycles  atomic.Int64

	mu        sync.Mutex
	usedBytes int64
	nextBufID int64

	workers int
}

const cycleFix = 256 // fixed-point scale for fractional cycles

// NewDevice creates a simulated device.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	return &Device{cfg: cfg, workers: w}, nil
}

// MustNewDevice is NewDevice that panics on configuration errors; for
// use in tests and examples with known-good configs.
func MustNewDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Buffer is a tracked device-memory allocation.
type Buffer struct {
	dev   *Device
	id    int64
	label string
	bytes int64
	freed bool
}

// Bytes returns the allocation size.
func (b *Buffer) Bytes() int64 { return b.bytes }

// Label returns the allocation label (for diagnostics).
func (b *Buffer) Label() string { return b.label }

// Malloc reserves bytes of device memory. It fails with ErrOutOfMemory
// when the budget would be exceeded — the signal the capacity planner
// uses to answer "how many sensors fit on one GPU".
func (d *Device) Malloc(label string, bytes int64) (*Buffer, error) {
	if bytes < 0 {
		return nil, fmt.Errorf("gpusim: negative allocation %d", bytes)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.usedBytes+bytes > d.cfg.GlobalMemBytes {
		return nil, fmt.Errorf("%w: want %d, used %d of %d (%s)",
			ErrOutOfMemory, bytes, d.usedBytes, d.cfg.GlobalMemBytes, label)
	}
	d.usedBytes += bytes
	d.nextBufID++
	return &Buffer{dev: d, id: d.nextBufID, label: label, bytes: bytes}, nil
}

// Grow extends b by delta bytes under the same budget check as Malloc:
// when the budget would be exceeded it fails with ErrOutOfMemory and
// leaves b and the device's usage unchanged. A structure that grows for
// its whole life books the growth against one buffer this way instead
// of holding one Buffer per increment.
func (d *Device) Grow(b *Buffer, delta int64) error {
	if b == nil || b.dev != d {
		return errors.New("gpusim: foreign buffer")
	}
	if delta < 0 {
		return fmt.Errorf("gpusim: negative growth %d", delta)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if b.freed {
		return ErrFreed
	}
	if d.usedBytes+delta > d.cfg.GlobalMemBytes {
		return fmt.Errorf("%w: want %d more, used %d of %d (%s)",
			ErrOutOfMemory, delta, d.usedBytes, d.cfg.GlobalMemBytes, b.label)
	}
	d.usedBytes += delta
	b.bytes += delta
	return nil
}

// Free releases a buffer. Freeing twice returns ErrFreed.
func (d *Device) Free(b *Buffer) error {
	if b == nil || b.dev != d {
		return errors.New("gpusim: foreign buffer")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if b.freed {
		return ErrFreed
	}
	b.freed = true
	d.usedBytes -= b.bytes
	return nil
}

// UsedBytes returns the current device-memory usage.
func (d *Device) UsedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.usedBytes
}

// TotalBytes returns the device-memory capacity.
func (d *Device) TotalBytes() int64 { return d.cfg.GlobalMemBytes }

// Block is the execution context handed to a kernel for one thread
// block. Kernels do their real work in plain Go and charge the cost
// model through the accounting methods. A Block is confined to the
// goroutine running the kernel; its methods must not be shared.
type Block struct {
	// ID is the block index within the launch grid, 0 ≤ ID < grid.
	ID int

	dev         *Device
	cycles      float64
	compute     float64
	global      float64
	shared      float64
	diverge     float64
	sharedBytes int
}

// Compute charges n arithmetic operations executed by one thread lane.
func (b *Block) Compute(n int) {
	c := float64(n) * b.dev.cfg.ComputeCyclesPerOp
	b.cycles += c
	b.compute += c
}

// GlobalAccess charges n coalesced 8-byte global-memory accesses.
func (b *Block) GlobalAccess(n int) {
	c := float64(n) * b.dev.cfg.GlobalCyclesPerWord
	b.cycles += c
	b.global += c
}

// SharedAccess charges n 8-byte shared-memory accesses.
func (b *Block) SharedAccess(n int) {
	c := float64(n) * b.dev.cfg.SharedCyclesPerWord
	b.cycles += c
	b.shared += c
}

// ParallelCompute charges compute work of threads lanes each doing
// opsPerThread operations, assuming the block's lanes run CoresPerSM
// wide: elapsed cycles = opsPerThread × ⌈threads / CoresPerSM⌉.
func (b *Block) ParallelCompute(threads, opsPerThread int) {
	if threads <= 0 || opsPerThread <= 0 {
		return
	}
	waves := (threads + b.dev.cfg.CoresPerSM - 1) / b.dev.cfg.CoresPerSM
	c := float64(waves) * float64(opsPerThread) * b.dev.cfg.ComputeCyclesPerOp
	b.cycles += c
	b.compute += c
}

// Diverge charges a divergent branch: on SIMD hardware the paths are
// serialized, so the cost is the *sum* of the per-path cycle counts
// rather than their max. Used to model mixing filtering with
// verification in one kernel (the design the paper §4.4 avoids).
func (b *Block) Diverge(pathCycles ...float64) {
	for _, c := range pathCycles {
		b.cycles += c
		b.diverge += c
	}
}

// AllocShared reserves bytes of the block's shared-memory budget and
// fails with ErrSharedMemExceeded if the kernel asks for more than the
// hardware provides — this is what forces Algorithm 2's compressed
// 2×(2ρ+2) warping matrix instead of a full d×d matrix.
func (b *Block) AllocShared(bytes int) error {
	if bytes < 0 {
		return fmt.Errorf("gpusim: negative shared allocation %d", bytes)
	}
	if b.sharedBytes+bytes > b.dev.cfg.SharedMemPerBlock {
		return fmt.Errorf("%w: want %d more, used %d of %d",
			ErrSharedMemExceeded, bytes, b.sharedBytes, b.dev.cfg.SharedMemPerBlock)
	}
	b.sharedBytes += bytes
	return nil
}

// SharedUsed returns the block's current shared-memory usage.
func (b *Block) SharedUsed() int { return b.sharedBytes }

// Launch runs kernel over a grid of blocks. Blocks execute concurrently
// on a worker pool; the per-block simulated cycles are accumulated into
// the device counter when each block retires. The first kernel error
// (if any) aborts accounting for nothing — all blocks still run — and
// is returned. A grid that gets one worker (one block, or one CPU) runs
// its blocks in order on the caller's goroutine: no goroutine is
// started and the caller never parks, so such a launch makes the same
// allocations however the scheduler and the GC happen to interleave.
func (d *Device) Launch(grid int, kernel func(b *Block) error) error {
	if grid <= 0 {
		return fmt.Errorf("gpusim: invalid grid size %d", grid)
	}
	// Fault-injection seam: a simulated launch failure (the real-GPU
	// analogue of a CUDA launch error) surfaces here, before any block
	// runs, so callers exercise their degradation paths.
	if err := fault.Check(fault.PointGPUSimLaunch); err != nil {
		return fmt.Errorf("gpusim: launch: %w", err)
	}
	d.launches.Add(1)
	d.blocks.Add(int64(grid))
	d.cycles.Add(int64(d.cfg.LaunchOverheadCycles * cycleFix))
	d.launchCycles.Add(int64(d.cfg.LaunchOverheadCycles * cycleFix))

	workers := d.workers
	if workers > grid {
		workers = grid
	}
	if workers == 1 {
		var firstErr error
		for id := 0; id < grid; id++ {
			if err := d.runBlock(id, kernel); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				id := int(next.Add(1)) - 1
				if id >= grid {
					return
				}
				if err := d.runBlock(id, kernel); err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// runBlock runs block id of a launch and retires its simulated cycles.
func (d *Device) runBlock(id int, kernel func(b *Block) error) error {
	blk := &Block{ID: id, dev: d}
	err := kernel(blk)
	d.cycles.Add(int64(blk.cycles * cycleFix))
	d.computeCycles.Add(int64(blk.compute * cycleFix))
	d.globalCycles.Add(int64(blk.global * cycleFix))
	d.sharedCycles.Add(int64(blk.shared * cycleFix))
	d.divergeCycles.Add(int64(blk.diverge * cycleFix))
	return err
}

// SimSeconds returns the simulated elapsed time of all work since the
// last ResetTimer: Σ block cycles spread over the SMs at the core clock.
func (d *Device) SimSeconds() float64 {
	cyc := float64(d.cycles.Load()) / cycleFix
	return cyc / (float64(d.cfg.SMs) * d.cfg.ClockHz)
}

// Launches returns the number of kernel launches since ResetTimer.
func (d *Device) Launches() int64 { return d.launches.Load() }

// BlocksRun returns the number of blocks executed since ResetTimer.
func (d *Device) BlocksRun() int64 { return d.blocks.Load() }

// ResetTimer zeroes the cycle and launch counters (memory usage is
// preserved).
func (d *Device) ResetTimer() {
	d.cycles.Store(0)
	d.launches.Store(0)
	d.blocks.Store(0)
	d.computeCycles.Store(0)
	d.globalCycles.Store(0)
	d.sharedCycles.Store(0)
	d.divergeCycles.Store(0)
	d.launchCycles.Store(0)
}

// Profile is a per-category cycle breakdown of the work since the last
// ResetTimer; it explains where a kernel's simulated time goes (the
// evaluation harness prints it for the search experiments).
type Profile struct {
	ComputeCycles float64
	GlobalCycles  float64
	SharedCycles  float64
	DivergeCycles float64
	LaunchCycles  float64
	Launches      int64
	Blocks        int64
}

// TotalCycles returns the sum of all categories.
func (p Profile) TotalCycles() float64 {
	return p.ComputeCycles + p.GlobalCycles + p.SharedCycles + p.DivergeCycles + p.LaunchCycles
}

// Profile snapshots the per-category counters.
func (d *Device) Profile() Profile {
	return Profile{
		ComputeCycles: float64(d.computeCycles.Load()) / cycleFix,
		GlobalCycles:  float64(d.globalCycles.Load()) / cycleFix,
		SharedCycles:  float64(d.sharedCycles.Load()) / cycleFix,
		DivergeCycles: float64(d.divergeCycles.Load()) / cycleFix,
		LaunchCycles:  float64(d.launchCycles.Load()) / cycleFix,
		Launches:      d.launches.Load(),
		Blocks:        d.blocks.Load(),
	}
}

// KSelectResult is one selected element: its index in the input slice
// and its value.
type KSelectResult struct {
	Index int
	Value float64
}

// KSelectBlock selects the k smallest values of dists inside a block,
// returning them sorted ascending (index, value) — the GPU k-selection
// of [Alabi et al.] adapted as the paper does: one block performs one
// query's selection and returns all k elements, not only the k-th.
// Entries with +Inf value (filtered candidates) are skipped. If fewer
// than k finite entries exist, all of them are returned.
func KSelectBlock(b *Block, dists []float64, k int) []KSelectResult {
	if k <= 0 || len(dists) == 0 {
		return nil
	}
	// Cost: one parallel pass over the array plus k·log k ordering.
	b.ParallelCompute(len(dists), 2)
	b.GlobalAccess(len(dists))

	// Max-heap of size k over the candidates, ordered by (value, index):
	// the root is the largest value and, among equal values, the largest
	// index, so when ties straddle the k-th place the smallest indices
	// are the ones kept.
	heap := make([]KSelectResult, 0, k)
	above := func(a, b KSelectResult) bool {
		return a.Value > b.Value || (a.Value == b.Value && a.Index > b.Index)
	}
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !above(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(heap) && above(heap[l], heap[big]) {
				big = l
			}
			if r < len(heap) && above(heap[r], heap[big]) {
				big = r
			}
			if big == i {
				return
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
	}
	for i, v := range dists {
		if v != v || v > maxFinite { // NaN or +Inf: filtered out
			continue
		}
		if len(heap) < k {
			heap = append(heap, KSelectResult{Index: i, Value: v})
			siftUp(len(heap) - 1)
			continue
		}
		if v < heap[0].Value {
			heap[0] = KSelectResult{Index: i, Value: v}
			siftDown(0)
		}
	}
	b.Compute(k * 4)
	sort.Slice(heap, func(i, j int) bool {
		if heap[i].Value != heap[j].Value {
			return heap[i].Value < heap[j].Value
		}
		return heap[i].Index < heap[j].Index
	})
	return heap
}

const maxFinite = 1.7976931348623157e308
