package pmem

import (
	"sort"
	"time"
)

// FlushSet accumulates dirty byte ranges for one batched write-back.
// Ranges are deduplicated at cache-line granularity when the set is
// issued (FlushBatch): adjacent extents, re-flushed slot headers and
// repeated index lines collapse to a single clwb each. A FlushSet is
// not safe for concurrent use; each event loop (or store) owns its own
// and reuses it across batches (FlushBatch resets it).
type FlushSet struct {
	spans []lineSpan
	refs  int // line references accumulated by Add (before dedup)
	// scratch is reused by VisitSpans so parity maintenance can walk the
	// set without consuming it or disturbing its dedup accounting.
	scratch []lineSpan
}

// lineSpan is an inclusive range of cache-line indices.
type lineSpan struct{ first, last int }

// Add records that [off, off+n) must be written back in the next
// FlushBatch. Zero-length ranges are ignored.
func (fs *FlushSet) Add(off, n int) {
	if n <= 0 {
		return
	}
	first := off / LineSize
	last := (off + n - 1) / LineSize
	fs.refs += last - first + 1
	if len(fs.spans) > 0 {
		// Fast path: extend the tail when ranges arrive in address order
		// (sequential extents, key bytes following a slot header).
		if t := &fs.spans[len(fs.spans)-1]; first == t.last+1 {
			t.last = last
			return
		}
	}
	fs.spans = append(fs.spans, lineSpan{first, last})
}

// Empty reports whether the set holds no ranges.
func (fs *FlushSet) Empty() bool { return len(fs.spans) == 0 }

// Refs returns the total line references added since the last reset —
// the clwb count a non-deduplicating protocol would have issued.
func (fs *FlushSet) Refs() int { return fs.refs }

// Reset discards the accumulated ranges (capacity is kept).
func (fs *FlushSet) Reset() {
	fs.spans = fs.spans[:0]
	fs.refs = 0
}

// VisitSpans calls fn(off, n) for every distinct line-aligned byte range
// currently in the set, in ascending address order with overlaps and
// adjacency merged. The set itself is untouched: iteration works on a
// scratch copy, so the later FlushBatch still sees the original spans
// and its dedup (LinesCoalesced) accounting is unaffected. fn may Add
// further ranges to the set; they are not visited.
func (fs *FlushSet) VisitSpans(fn func(off, n int)) {
	if len(fs.spans) == 0 {
		return
	}
	fs.scratch = append(fs.scratch[:0], fs.spans...)
	sort.Slice(fs.scratch, func(a, b int) bool { return fs.scratch[a].first < fs.scratch[b].first })
	cur := fs.scratch[0]
	for _, sp := range fs.scratch[1:] {
		if sp.first <= cur.last+1 {
			if sp.last > cur.last {
				cur.last = sp.last
			}
			continue
		}
		fn(cur.first*LineSize, (cur.last-cur.first+1)*LineSize)
		cur = sp
	}
	fn(cur.first*LineSize, (cur.last-cur.first+1)*LineSize)
}

// normalize sorts the spans, merges overlapping and adjacent ones in
// place, and returns the number of line references collapsed by the
// overlap dedup (adjacency is mere iteration convenience, not a dup).
func (fs *FlushSet) normalize() int {
	if len(fs.spans) < 2 {
		return 0
	}
	sort.Slice(fs.spans, func(a, b int) bool { return fs.spans[a].first < fs.spans[b].first })
	coalesced := 0
	out := fs.spans[:1]
	for _, sp := range fs.spans[1:] {
		t := &out[len(out)-1]
		if sp.first <= t.last { // overlap: duplicate line references
			if sp.last <= t.last {
				coalesced += sp.last - sp.first + 1
				continue
			}
			coalesced += t.last - sp.first + 1
			t.last = sp.last
			continue
		}
		if sp.first == t.last+1 { // adjacent: merge for iteration only
			t.last = sp.last
			continue
		}
		out = append(out, sp)
	}
	fs.spans = out
	return coalesced
}

// BatchStats reports what one FlushBatch actually issued.
type BatchStats struct {
	// Lines is the distinct cache-line count covered after dedup — the
	// clwbs issued.
	Lines int
	// Coalesced is how many duplicate line references the dedup absorbed
	// (Refs - Lines over overlapping ranges).
	Coalesced int
	// Flushed is how many of the issued lines were dirty and actually
	// moved into the write-back (flushed-but-unfenced) window; clean
	// lines retire for free, as clwb of a clean line does.
	Flushed int
	// Wasted counts issued lines that were already in the write-back
	// window — redundant clwbs a well-formed commit protocol never
	// produces (the duplicate-flush assertion counter).
	Wasted int
}

// FlushBatch issues one clwb per distinct dirty line accumulated in fs,
// as a single persist operation: an installed PersistHook is consulted
// exactly once (the whole batch is one cut point, and a torn cut tears
// the first dirty line of the deduplicated set), latency is charged for
// the deduplicated dirty-line count only, and Stats.Flushes increments
// by one. The set is reset afterwards. Durability still requires a
// Fence, exactly as for Flush.
func (r *Region) FlushBatch(fs *FlushSet) BatchStats { return r.FlushBatchFrom(0, fs) }

// FlushBatchFrom is FlushBatch issued from the given NUMA node: each
// freshly written-back line whose home socket differs pays the remote
// flush rate plus interconnect hops.
func (r *Region) FlushBatchFrom(node int, fs *FlushSet) BatchStats {
	bs := BatchStats{Coalesced: fs.normalize()}
	numa := r.numaNodes > 1
	var acc nodeAcc
	for _, sp := range fs.spans {
		bs.Lines += sp.last - sp.first + 1
	}
	if bs.Lines == 0 {
		fs.Reset()
		return bs
	}
	last := fs.spans[len(fs.spans)-1].last
	if (last+1)*LineSize > len(r.buf) {
		panic("pmem: FlushBatch range outside region")
	}
	r.mu.Lock()
	if r.failed || r.closed {
		r.mu.Unlock()
		fs.Reset()
		return bs
	}
	if r.persistHook != nil {
		if d := r.persistHook(OpFlush); d.Cut {
			r.failSpansLocked(fs.spans, d.TearBytes)
			r.mu.Unlock()
			fs.Reset()
			return bs
		}
	}
	for _, sp := range fs.spans {
		for l := sp.first; l <= sp.last; l++ {
			w, bit := l/64, uint64(1)<<(l%64)
			switch {
			case r.dirty[w]&bit != 0:
				r.dirty[w] &^= bit
				if r.pending[w] == 0 {
					r.pendingWords = append(r.pendingWords, w)
				}
				r.pending[w] |= bit
				bs.Flushed++
				if numa {
					r.accLine(&acc, node, l, r.flushLine, r.remoteFlush)
				}
			case r.pending[w]&bit != 0:
				bs.Wasted++
			}
		}
	}
	r.mu.Unlock()
	cost := time.Duration(bs.Flushed) * r.flushLine
	if numa {
		cost = acc.cost
		r.commitAcc(&acc)
	}
	r.charge(cost)
	r.statsMu.Lock()
	r.stats.Flushes++
	r.stats.BatchFlushes++
	r.stats.LinesFlushed += uint64(bs.Flushed)
	r.stats.LinesCoalesced += uint64(bs.Coalesced)
	r.stats.WastedFlushes += uint64(bs.Wasted)
	r.statsMu.Unlock()
	fs.Reset()
	return bs
}

// failSpansLocked cuts the power at a batched flush: pending lines are
// frozen exactly as in failLocked, and a torn write-back persists
// tearBytes of the first dirty line of the (sorted, deduplicated) set —
// never of some unrelated dirty line outside it.
func (r *Region) failSpansLocked(spans []lineSpan, tearBytes int) {
	r.failed = true
	r.freezePendingLocked()
	if tearBytes <= 0 {
		return
	}
	if tearBytes >= LineSize {
		tearBytes = LineSize - 1
	}
	for _, sp := range spans {
		for l := sp.first; l <= sp.last; l++ {
			if r.dirty[l/64]&(1<<(l%64)) != 0 {
				o := l * LineSize
				copy(r.shadow[o:o+tearBytes], r.buf[o:o+tearBytes])
				return
			}
		}
	}
}
