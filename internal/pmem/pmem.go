// Package pmem simulates a byte-addressable persistent-memory device
// (Intel Optane DC PM in App-Direct mode, as used by the paper's testbed).
//
// The simulation models the two properties the experiments depend on:
//
//  1. Latency. Loads, stores and cache-line write-backs to PM cost more
//     than DRAM. A Region charges calibrated delays (internal/latency)
//     per cache line for reads, writes and flushes, per the profile it
//     was created with.
//
//  2. Persistence semantics. A store is NOT durable until the cache line
//     holding it has been written back (clwb/clflushopt, modelled by
//     Flush) and the write-back has been ordered by a fence (sfence,
//     modelled by Fence). A Region maintains a shadow "persisted" image:
//     dirty lines live only in the volatile image; Flush moves them to a
//     pending set; Fence commits the pending set to the shadow. Crash
//     rebuilds the volatile image from the shadow — flushed-but-unfenced
//     lines survive with 50/50 probability per line, exactly the
//     uncertainty window real hardware exhibits — so crash-consistency
//     bugs (missing flushes, missing fences, wrong ordering) manifest as
//     real data loss in tests.
//
// A Region may be backed by a file (OpenFile). The durable image is then
// a MAP_SHARED mapping of that file, the analogue of a DAX-mapped PM
// namespace: Fence copies fenced lines straight into the page cache, so
// they survive the death of the process (SIGKILL, the OOM killer, a
// panic) with no further call. Sync writes the dirty pages back to the
// disk; only that makes them survive a power loss or kernel crash.
package pmem

import (
	"errors"
	"fmt"
	"log"
	"math/bits"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/latency"
)

// LineSize is the cache-line granularity of flush operations, in bytes.
const LineSize = 64

// PersistOp identifies one durability-ordering operation on a Region, in
// issue order: every Flush and every Fence counts as one op. Fault plans
// index crash points by this count.
type PersistOp uint8

// Persist operations observed by a PersistHook.
const (
	OpFlush PersistOp = iota + 1
	OpFence
)

// PersistDecision is a fault plan's verdict on one persist operation.
type PersistDecision struct {
	// Cut simulates power loss at this operation: the operation and every
	// later Flush/Fence have no durable effect. The software under test
	// keeps running against the volatile image (harmlessly — the power is
	// already gone); the harness then calls Crash to discard it.
	Cut bool
	// TearBytes, with Cut at a Flush, persists only that prefix of the
	// first dirty line of the flushed range — a torn cache-line
	// write-back, the partial-line state real PM exposes when power dies
	// mid-write-back. 0 cuts cleanly. Values are clamped to LineSize-1.
	TearBytes int
}

// PersistHook observes every Flush and Fence on a Region and may cut the
// power at any of them. It is called with the region lock held: it must
// decide from its own state only and must not call back into the Region.
type PersistHook func(op PersistOp) PersistDecision

// SetPersistHook installs (or, with nil, removes) a fault-injection hook
// consulted on every Flush and Fence. Crash removes the hook — the
// rebooted device persists normally again.
func (r *Region) SetPersistHook(h PersistHook) {
	r.mu.Lock()
	r.persistHook = h
	r.mu.Unlock()
}

// PowerFailed reports whether an installed hook has cut the power (and
// no Crash has rebooted the device yet). While failed, no Flush or Fence
// has any durable effect.
func (r *Region) PowerFailed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// Stats counts Region operations. Latencies are the emulated hardware
// delays charged; they are included in wall-clock measurements because
// charging spins.
type Stats struct {
	Reads        uint64 // explicit charged reads (lines)
	Writes       uint64 // write calls
	BytesWritten uint64
	LinesFlushed uint64
	Flushes      uint64 // Flush + FlushBatch calls
	Fences       uint64
	// BatchFlushes counts FlushBatch calls (a subset of Flushes);
	// LinesCoalesced counts duplicate line references those batches
	// deduplicated away; WastedFlushes counts clwbs issued for lines
	// already in the flushed-but-unfenced window — redundant write-backs
	// a well-formed commit protocol never produces.
	BatchFlushes   uint64
	LinesCoalesced uint64
	WastedFlushes  uint64
	// ParityLines counts parity lines updated by XorDeltaBatch on the
	// write path; ReconstructedLines counts lines rebuilt from surviving
	// group members by XorReconstruct on the repair path.
	ParityLines        uint64
	ReconstructedLines uint64
	// LocalLines / RemoteLines attribute charged line accesses to the
	// accessor's socket when a NUMA map is installed (SetNUMA with
	// nodes > 1); both stay zero on single-node regions. RemoteExtra is
	// the total surcharge remote lines paid over the local rate — the
	// modeled cross-socket penalty a perfectly aligned placement would
	// have avoided.
	LocalLines  uint64
	RemoteLines uint64
	RemoteExtra time.Duration
	Charged     time.Duration // total emulated delay
}

// Region is a simulated PM device. All mutating methods are safe for
// concurrent use. Read-side helpers that return direct slices (Slice) do
// not synchronize with writers; callers partition the address space, as
// software sharing a real PM mapping must.
type Region struct {
	mu      sync.Mutex
	buf     []byte   // volatile image (CPU caches + PM, merged view)
	shadow  []byte   // durable image
	dirty   []uint64 // bitset: line written since last flush
	pending []uint64 // bitset: line flushed but not yet fenced
	// pendingWords lists bitset words with pending bits, so Fence scans
	// only what was flushed instead of the whole (potentially multi-GB)
	// line space.
	pendingWords []int
	// closed is set by Close. From then on every operation that touches
	// the durable image is a no-op, as after a power cut: a file-backed
	// shadow is unmapped by then.
	closed bool

	// Fault injection: persistHook is consulted on every Flush/Fence;
	// once it cuts the power, failed stays true until Crash reboots the
	// device and no durability operation has any effect. frozen snapshots
	// the pending lines' content at the instant of the cut: the software
	// under test keeps running against the volatile image, but stores
	// issued after power died must never reach the media, even when their
	// line was already in the clwb/sfence window.
	persistHook PersistHook
	failed      bool
	frozen      map[int][]byte

	file    *os.File // nil if purely in-memory
	mapping []byte   // the mapped image file: header, then shadow

	readLine  time.Duration
	writeLine time.Duration
	flushLine time.Duration
	fence     time.Duration

	// NUMA model (SetNUMA): lineNode maps each cache line to its home
	// socket; accesses from another socket are charged the remote rates
	// plus per-hop interconnect cost. numaNodes <= 1 means no NUMA model
	// and every *From method degenerates to exactly the pre-NUMA
	// arithmetic with zero extra work on the hot path. The table and
	// rates are written only by SetNUMA on a quiescent region (before
	// serving) and read-only afterwards, so lock-free readers are safe.
	numaNodes   int
	lineNode    []int8
	remoteRead  time.Duration
	remoteWrite time.Duration
	remoteFlush time.Duration
	hopCost     time.Duration

	localLines    atomic.Uint64
	remoteLines   atomic.Uint64
	remoteExtraNs atomic.Int64

	// multiCore: the region serves several simulated cores (sharded
	// stores with one event loop each), so a PM stall must yield the
	// physical CPU to the other loops instead of busy-waiting — see
	// charge.
	multiCore atomic.Bool

	stats   Stats
	statsMu sync.Mutex
}

// SetMultiCore declares whether several simulated cores issue PM
// operations concurrently. Single-core deployments (the paper's) leave
// it off: a stall busy-waits, stalling the one simulated CPU exactly as
// clwb/sfence drains stall a real one. Sharded deployments turn it on:
// each shard's event loop is its own simulated core, and on a host with
// fewer physical CPUs than loops a busy wait would falsely stall the
// *other* simulated cores too, so stalls yield instead (the wall-clock
// charge is identical; only scheduling differs).
func (r *Region) SetMultiCore(on bool) { r.multiCore.Store(on) }

// New creates an in-memory Region of the given size with latencies taken
// from profile. Size is rounded up to a whole number of lines.
func New(size int, profile calib.Profile) *Region {
	size = roundSize(size)
	return newRegion(make([]byte, size), profile)
}

func roundSize(size int) int {
	if size <= 0 {
		panic("pmem: non-positive size")
	}
	return (size + LineSize - 1) &^ (LineSize - 1)
}

// newRegion builds a Region over the durable image shadow, whose length
// is a whole number of lines. The volatile image starts zeroed.
func newRegion(shadow []byte, profile calib.Profile) *Region {
	nlines := len(shadow) / LineSize
	return &Region{
		buf:       make([]byte, len(shadow)),
		shadow:    shadow,
		dirty:     make([]uint64, (nlines+63)/64),
		pending:   make([]uint64, (nlines+63)/64),
		readLine:  profile.PMReadLine,
		writeLine: profile.PMWriteLine,
		flushLine: profile.PMFlushLine,
		fence:     profile.PMFence,
	}
}

// fileMagic distinguishes a Region backing file.
var fileMagic = []byte("PKTSPMEM")

// OpenFile opens (or creates) a file-backed Region of the given size. The
// file holds the 8-byte magic, then the durable image, which is mapped
// MAP_SHARED in place rather than copied. A fresh file is allocated in
// full on disk up front, so that a full disk fails here instead of
// raising SIGBUS on a later fence. An existing file's size must match.
// The volatile image starts equal to the persisted image, as after a
// reboot.
func OpenFile(path string, size int, profile calib.Profile) (*Region, error) {
	size = roundSize(size)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pmem: open %s: %w", path, err)
	}
	m, fresh, err := mapImage(f, path, int64(len(fileMagic)+size))
	if err != nil {
		f.Close()
		return nil, err
	}
	r := newRegion(m[len(fileMagic):], profile)
	if !fresh {
		copy(r.buf, r.shadow)
	}
	r.file, r.mapping = f, m
	return r, nil
}

// mapImage validates or initialises the image file f of want bytes and
// maps it shared. fresh reports a newly created (all-zero) image.
func mapImage(f *os.File, path string, want int64) (m []byte, fresh bool, err error) {
	st, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	switch st.Size() {
	case 0:
		fresh = true
		if _, err := f.WriteAt(fileMagic, 0); err != nil {
			return nil, false, err
		}
		if err := f.Truncate(want); err != nil {
			return nil, false, err
		}
		// A file system without fallocate still serves the image, but a
		// full disk then surfaces as SIGBUS on a fence.
		err := syscall.Fallocate(int(f.Fd()), 0, 0, want)
		if err != nil && !errors.Is(err, syscall.EOPNOTSUPP) {
			return nil, false, fmt.Errorf("pmem: allocate %s: %w", path, err)
		}
	case want:
		hdr := make([]byte, len(fileMagic))
		if _, err := f.ReadAt(hdr, 0); err != nil {
			return nil, false, err
		}
		if string(hdr) != string(fileMagic) {
			return nil, false, fmt.Errorf("pmem: %s is not a pmem image", path)
		}
	default:
		return nil, false, fmt.Errorf("pmem: %s has size %d, want %d", path, st.Size(), want)
	}
	m, err = syscall.Mmap(int(f.Fd()), 0, int(want), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, false, fmt.Errorf("pmem: map %s: %w", path, err)
	}
	return m, fresh, nil
}

// Size returns the region size in bytes.
func (r *Region) Size() int { return len(r.buf) }

func (r *Region) check(off, n int) {
	if off < 0 || n < 0 || off+n > len(r.buf) {
		panic(fmt.Sprintf("pmem: access [%d,%d) outside region of %d bytes", off, off+n, len(r.buf)))
	}
}

func lines(off, n int) int {
	if n == 0 {
		return 0
	}
	first := off / LineSize
	last := (off + n - 1) / LineSize
	return last - first + 1
}

func (r *Region) charge(d time.Duration) {
	if d <= 0 {
		return
	}
	// PM access and flush delays stall the issuing core (blocking loads,
	// clwb retire, sfence drain), so they spin hot rather than yield —
	// unless several simulated cores share the physical ones, where a
	// hot spin would stall the whole simulation (SetMultiCore).
	if r.multiCore.Load() {
		latency.Spin(d)
	} else {
		latency.SpinHot(d)
	}
	r.statsMu.Lock()
	r.stats.Charged += d
	r.statsMu.Unlock()
}

// Slice returns a direct view of [off, off+n). Reads through the slice are
// not charged PM latency (they model cache hits / streaming reads); writes
// through the slice MUST be followed by MarkDirty or they will silently
// vanish on Crash, exactly as un-tracked stores would on real hardware
// with a buggy persistence protocol.
func (r *Region) Slice(off, n int) []byte {
	r.check(off, n)
	return r.buf[off : off+n : off+n]
}

// Touch charges the PM read latency for a cache-missing read of [off,
// off+n). Index walks use it to model pointer-chasing loads.
func (r *Region) Touch(off, n int) { r.TouchFrom(0, off, n) }

// TouchFrom is Touch issued from the given NUMA node: lines whose home
// socket differs are charged the remote read rate plus interconnect
// hops. Without a NUMA map (SetNUMA not called, or nodes <= 1) it is
// exactly Touch.
func (r *Region) TouchFrom(node, off, n int) {
	r.check(off, n)
	nl := lines(off, n)
	r.charge(r.spanCost(node, off, nl, r.readLine, r.remoteRead))
	r.statsMu.Lock()
	r.stats.Reads += uint64(nl)
	r.statsMu.Unlock()
}

// Read copies [off, off+len(dst)) into dst, charging read latency.
func (r *Region) Read(dst []byte, off int) { r.ReadFrom(0, dst, off) }

// ReadFrom is Read issued from the given NUMA node.
func (r *Region) ReadFrom(node int, dst []byte, off int) {
	r.check(off, len(dst))
	copy(dst, r.buf[off:])
	nl := lines(off, len(dst))
	r.charge(r.spanCost(node, off, nl, r.readLine, r.remoteRead))
	r.statsMu.Lock()
	r.stats.Reads += uint64(nl)
	r.statsMu.Unlock()
}

// Write copies src into the region at off, marks the covered lines dirty,
// and charges write latency.
func (r *Region) Write(off int, src []byte) { r.WriteFrom(0, off, src) }

// WriteFrom is Write issued from the given NUMA node: the store still
// lands in the target DIMM's write-pending queue, but a cross-socket
// store pays the interconnect transfer first.
func (r *Region) WriteFrom(node, off int, src []byte) {
	r.check(off, len(src))
	r.mu.Lock()
	copy(r.buf[off:], src)
	r.markDirtyLocked(off, len(src))
	r.mu.Unlock()
	r.charge(r.spanCost(node, off, lines(off, len(src)), r.writeLine, r.remoteWrite))
	r.statsMu.Lock()
	r.stats.Writes++
	r.stats.BytesWritten += uint64(len(src))
	r.statsMu.Unlock()
}

// WriteUint64 stores an 8-byte little-endian value at off. off must be
// 8-byte aligned so the store is atomic with respect to crashes, the
// property commit words rely on.
func (r *Region) WriteUint64(off int, v uint64) {
	if off%8 != 0 {
		panic("pmem: unaligned WriteUint64")
	}
	var b [8]byte
	putUint64(b[:], v)
	r.Write(off, b[:])
}

// ReadUint64 loads an 8-byte little-endian value (uncharged; callers that
// model a cache miss call Touch).
func (r *Region) ReadUint64(off int) uint64 {
	r.check(off, 8)
	return getUint64(r.buf[off:])
}

// WriteUint32 stores a 4-byte little-endian value at a 4-byte-aligned off.
func (r *Region) WriteUint32(off int, v uint32) {
	if off%4 != 0 {
		panic("pmem: unaligned WriteUint32")
	}
	var b [4]byte
	putUint32(b[:], v)
	r.Write(off, b[:])
}

// ReadUint32 loads a 4-byte little-endian value (uncharged).
func (r *Region) ReadUint32(off int) uint32 {
	r.check(off, 4)
	return getUint32(r.buf[off:])
}

// MarkDirty records that [off, off+n) was mutated through a Slice (for
// example by DMA). No latency is charged; the writer charges its own cost.
func (r *Region) MarkDirty(off, n int) {
	r.check(off, n)
	r.mu.Lock()
	r.markDirtyLocked(off, n)
	r.mu.Unlock()
}

func (r *Region) markDirtyLocked(off, n int) {
	if n == 0 {
		return
	}
	first := off / LineSize
	last := (off + n - 1) / LineSize
	for l := first; l <= last; l++ {
		r.dirty[l/64] |= 1 << (l % 64)
	}
}

// Flush issues clwb for every line in [off, off+n): dirty lines move to
// the pending (flushed-but-unfenced) set and are charged flush latency.
// Lines that are not dirty cost nothing, as clwb of a clean line retires
// without a write-back.
func (r *Region) Flush(off, n int) { r.FlushFrom(0, off, n) }

// FlushFrom is Flush issued from the given NUMA node: each freshly
// written-back line whose home socket differs pays the remote flush
// rate plus interconnect hops (the write-back cannot complete until the
// line reaches the remote DIMM's ADR domain).
func (r *Region) FlushFrom(node, off, n int) {
	r.check(off, n)
	if n == 0 {
		return
	}
	first := off / LineSize
	last := (off + n - 1) / LineSize
	flushed := 0
	numa := r.numaNodes > 1
	var acc nodeAcc
	r.mu.Lock()
	if r.failed || r.closed {
		r.mu.Unlock()
		return
	}
	if r.persistHook != nil {
		if d := r.persistHook(OpFlush); d.Cut {
			r.failLocked(first, last, d.TearBytes)
			r.mu.Unlock()
			return
		}
	}
	wasted := 0
	for l := first; l <= last; l++ {
		w, bit := l/64, uint64(1)<<(l%64)
		switch {
		case r.dirty[w]&bit != 0:
			r.dirty[w] &^= bit
			if r.pending[w] == 0 {
				r.pendingWords = append(r.pendingWords, w)
			}
			r.pending[w] |= bit
			flushed++
			if numa {
				r.accLine(&acc, node, l, r.flushLine, r.remoteFlush)
			}
		case r.pending[w]&bit != 0:
			wasted++
		}
	}
	r.mu.Unlock()
	cost := time.Duration(flushed) * r.flushLine
	if numa {
		cost = acc.cost
		r.commitAcc(&acc)
	}
	r.charge(cost)
	r.statsMu.Lock()
	r.stats.Flushes++
	r.stats.LinesFlushed += uint64(flushed)
	r.stats.WastedFlushes += uint64(wasted)
	r.statsMu.Unlock()
}

// failLocked cuts the power: all later persist operations become no-ops
// until Crash. A torn flush persists tearBytes of the first dirty line in
// [first, last] — the half-written-back line a real power cut can leave.
func (r *Region) failLocked(first, last, tearBytes int) {
	r.failed = true
	r.freezePendingLocked()
	if tearBytes <= 0 {
		return
	}
	if tearBytes >= LineSize {
		tearBytes = LineSize - 1
	}
	for l := first; l <= last; l++ {
		if r.dirty[l/64]&(1<<(l%64)) != 0 {
			o := l * LineSize
			copy(r.shadow[o:o+tearBytes], r.buf[o:o+tearBytes])
			return
		}
	}
}

// freezePendingLocked snapshots the flushed-but-unfenced lines as they
// are right now: Crash resolves each 50/50 from this snapshot, not from
// whatever the still-running (but already powerless) software writes
// afterwards.
func (r *Region) freezePendingLocked() {
	r.frozen = make(map[int][]byte)
	for _, w := range r.pendingWords {
		bv := r.pending[w]
		for bv != 0 {
			l := w*64 + bits.TrailingZeros64(bv)
			bv &= bv - 1
			o := l * LineSize
			r.frozen[l] = append([]byte(nil), r.buf[o:o+LineSize]...)
		}
	}
}

// Fence orders all previously flushed lines: the pending set is committed
// to the durable shadow image.
func (r *Region) Fence() {
	r.mu.Lock()
	if r.failed || r.closed {
		r.mu.Unlock()
		return
	}
	if r.persistHook != nil {
		if d := r.persistHook(OpFence); d.Cut {
			// Power dies before the sfence retires: the pending (flushed
			// but unordered) lines stay in their undefined window — Crash
			// resolves each 50/50, exactly as for a missing fence.
			r.failLocked(0, -1, 0)
			r.mu.Unlock()
			return
		}
	}
	for _, w := range r.pendingWords {
		bv := r.pending[w]
		for bv != 0 {
			l := w*64 + bits.TrailingZeros64(bv)
			bv &= bv - 1
			o := l * LineSize
			copy(r.shadow[o:o+LineSize], r.buf[o:o+LineSize])
		}
		r.pending[w] = 0
	}
	r.pendingWords = r.pendingWords[:0]
	r.mu.Unlock()
	r.charge(r.fence)
	r.statsMu.Lock()
	r.stats.Fences++
	r.statsMu.Unlock()
}

// Persist is the common flush-then-fence sequence for a single range.
func (r *Region) Persist(off, n int) {
	r.Flush(off, n)
	r.Fence()
}

// PersistFrom is Persist issued from the given NUMA node.
func (r *Region) PersistFrom(node, off, n int) {
	r.FlushFrom(node, off, n)
	r.Fence()
}

// WriteUint64From is WriteUint64 issued from the given NUMA node.
func (r *Region) WriteUint64From(node, off int, v uint64) {
	if off%8 != 0 {
		panic("pmem: unaligned WriteUint64")
	}
	var b [8]byte
	putUint64(b[:], v)
	r.WriteFrom(node, off, b[:])
}

// WriteUint32From is WriteUint32 issued from the given NUMA node.
func (r *Region) WriteUint32From(node, off int, v uint32) {
	if off%4 != 0 {
		panic("pmem: unaligned WriteUint32")
	}
	var b [4]byte
	putUint32(b[:], v)
	r.WriteFrom(node, off, b[:])
}

// crashLogger receives the seed of every injected crash. The default
// writes through the standard logger so a failing test's output names
// the seed that reproduces it; torture harnesses install a recorder.
var crashLogger atomic.Value // func(seed int64)

func init() {
	crashLogger.Store(func(seed int64) {
		log.Printf("pmem: injected crash (reproduce with seed %d)", seed)
	})
}

// SetCrashLogger replaces the crash-seed logger (nil restores the
// default). Harnesses that inject thousands of crashes record the seeds
// into their results instead of spamming the log.
func SetCrashLogger(fn func(seed int64)) {
	if fn == nil {
		fn = func(seed int64) {
			log.Printf("pmem: injected crash (reproduce with seed %d)", seed)
		}
	}
	crashLogger.Store(fn)
}

// Crash simulates a power failure and reboot: the volatile image is
// discarded and rebuilt from the durable shadow. Each line that was
// flushed but not yet fenced independently survives with probability 1/2,
// drawn from a generator seeded with the explicit seed — the undefined
// window between clwb and sfence. The seed is logged (SetCrashLogger) so
// any crash-consistency failure reproduces from its seed alone. The
// Region remains usable afterwards, representing the post-reboot device:
// any installed persist hook and power-failure state are cleared.
func (r *Region) Crash(seed int64) {
	crashLogger.Load().(func(seed int64))(seed)
	rng := rand.New(rand.NewSource(seed))
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.persistHook = nil
	r.failed = false
	defer func() { r.frozen = nil }()
	for _, w := range r.pendingWords {
		bv := r.pending[w]
		for bv != 0 {
			l := w*64 + bits.TrailingZeros64(bv)
			bv &= bv - 1
			if rng.Intn(2) == 0 {
				o := l * LineSize
				src := r.buf[o : o+LineSize]
				if b, ok := r.frozen[l]; ok {
					// The power cut froze this line before later volatile
					// writes landed on it.
					src = b
				}
				copy(r.shadow[o:o+LineSize], src)
			}
		}
		r.pending[w] = 0
	}
	r.pendingWords = r.pendingWords[:0]
	copy(r.buf, r.shadow)
	for i := range r.dirty {
		r.dirty[i] = 0
	}
}

// CorruptByte XORs mask into the byte at off in both the volatile and the
// durable image — media corruption (a flipped bit in a PM row) that
// survives reboot. Fault injection uses it to prove checksum verification
// detects, quarantines, and never serves corrupted data.
func (r *Region) CorruptByte(off int, mask byte) {
	r.check(off, 1)
	r.mu.Lock()
	if !r.closed {
		r.buf[off] ^= mask
		r.shadow[off] ^= mask
	}
	r.mu.Unlock()
}

// Sync writes the image file's dirty pages back to the disk, if the
// region is file-backed. Fenced lines already outlive the process; after
// Sync they also outlive a power loss or kernel crash.
func (r *Region) Sync() error {
	r.mu.Lock()
	f := r.file
	r.mu.Unlock()
	if f == nil {
		return nil
	}
	return f.Sync()
}

// Close syncs (when file-backed), unmaps the image and releases the
// backing file. Later persist operations are no-ops, as after a power
// cut.
func (r *Region) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errors.New("pmem: already closed")
	}
	r.closed = true
	if r.file == nil {
		return nil
	}
	err := r.file.Sync()
	if uerr := syscall.Munmap(r.mapping); err == nil {
		err = uerr
	}
	if cerr := r.file.Close(); err == nil {
		err = cerr
	}
	r.file, r.mapping, r.shadow = nil, nil, nil
	return err
}

// Stats returns a snapshot of the operation counters.
func (r *Region) Stats() Stats {
	r.statsMu.Lock()
	s := r.stats
	r.statsMu.Unlock()
	s.LocalLines = r.localLines.Load()
	s.RemoteLines = r.remoteLines.Load()
	s.RemoteExtra = time.Duration(r.remoteExtraNs.Load())
	return s
}

// ResetStats zeroes the operation counters.
func (r *Region) ResetStats() {
	r.statsMu.Lock()
	r.stats = Stats{}
	r.statsMu.Unlock()
	r.localLines.Store(0)
	r.remoteLines.Store(0)
	r.remoteExtraNs.Store(0)
}

// DirtyLines reports how many lines are dirty (unflushed); tests use it to
// assert that persistence protocols leave nothing behind.
func (r *Region) DirtyLines() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

// PendingLines reports how many lines are flushed but not fenced.
func (r *Region) PendingLines() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.pending {
		n += bits.OnesCount64(w)
	}
	return n
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

func getUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putUint32(b []byte, v uint32) {
	_ = b[3]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getUint32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
