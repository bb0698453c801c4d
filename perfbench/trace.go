package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"packetstore/internal/kvserver"
)

// span is one timed interval at a layer boundary. Spans of one request
// share (Conn, Seq); server spans that cover several pipelined requests
// (a read chunk and its socket calls) carry Seq -1 and are the parents
// of the per-request core spans inside them. Times are ns since the
// tracer's epoch; Parent indexes the span slice (-1 = root).
type span struct {
	Name       string
	Conn       int32
	Seq        int64
	Key        int32
	Start, End int64
	Parent     int32
	remote     string // server side: peer address, resolved to Conn later
}

// tracer records spans in memory while on; they are written out when
// the run ends. All recording goes through one mutex: the traced run
// pays for it, and bench.trace_overhead reports what it costs.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
	conns map[string]int32 // client local address -> client id
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), conns: make(map[string]int32)}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }
func (t *tracer) now() int64            { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// registerClient maps a client connection's local address to its id, so
// the server side of the same connection can be matched to it.
func (t *tracer) registerClient(addr net.Addr, id int) {
	t.mu.Lock()
	t.conns[addr.String()] = int32(id)
	t.mu.Unlock()
}

// tracedListener wraps the listener handed to kvserver.NetServer so that
// every accepted connection's socket calls are timed.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, remote: c.RemoteAddr().String()}, nil
}

// tracedConn times the server's Read and Write calls. A chunk span runs
// from a Read's return (requests arrived) to the Write that answers
// them; reads that return no complete request leave the chunk open, and
// the time spent blocked in them is recorded as net.read children.
type tracedConn struct {
	net.Conn
	tr         *tracer
	remote     string
	open       bool
	chunkStart int64
	kids       []span
}

func (c *tracedConn) Read(p []byte) (int, error) {
	if !c.tr.on.Load() {
		c.open = false
		return c.Conn.Read(p)
	}
	start := c.tr.now()
	n, err := c.Conn.Read(p)
	end := c.tr.now()
	if c.open {
		c.kids = append(c.kids, span{Name: "net.read", Seq: -1, Start: start, End: end})
	} else {
		c.open, c.chunkStart = true, end
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.tr.on.Load() || !c.open {
		return c.Conn.Write(p)
	}
	start := c.tr.now()
	n, err := c.Conn.Write(p)
	end := c.tr.now()
	c.kids = append(c.kids, span{Name: "net.write", Seq: -1, Start: start, End: end})
	c.tr.mu.Lock()
	parent := int32(len(c.tr.spans))
	c.tr.spans = append(c.tr.spans, span{Name: "kvserver.chunk", Seq: -1, Start: c.chunkStart, End: end, Parent: -1, remote: c.remote})
	for _, k := range c.kids {
		k.Parent, k.remote = parent, c.remote
		c.tr.spans = append(c.tr.spans, k)
	}
	c.tr.mu.Unlock()
	c.kids = c.kids[:0]
	c.open = false
	return n, err
}

// tracedBackend times calls into the store (core) at the Backend seam.
// Only the serving goroutine of a connection calls it, between that
// connection's chunk boundaries, so each core span is later attached to
// the chunk that contains it.
type tracedBackend struct {
	kvserver.ShardedPktStore
	tr *tracer
}

func (b tracedBackend) Put(key, value []byte) error {
	if !b.tr.on.Load() {
		return b.S.Put(key, value)
	}
	start := b.tr.now()
	err := b.S.Put(key, value)
	b.tr.add(span{Name: "core.put", Seq: -1, Key: int32(keyIndex(key)), Start: start, End: b.tr.now()})
	return err
}

func (b tracedBackend) Get(key []byte) ([]byte, bool, error) {
	if !b.tr.on.Load() {
		return b.S.Get(key)
	}
	start := b.tr.now()
	v, ok, err := b.S.Get(key)
	b.tr.add(span{Name: "core.get", Seq: -1, Key: int32(keyIndex(key)), Start: start, End: b.tr.now()})
	return v, ok, err
}

// serverLayers is what the daemon's seams add up to over a traced window.
type serverLayers struct {
	requests              int
	reads, writes         uint64
	chunkNs, writeNs      int64
	readInChunkNs, coreNs int64
	putNs, getNs          []int64 // sorted core span durations
	rttShare              []float64
}

// link resolves server spans to client connections and requests, and
// attaches every core span to the chunk containing it: a core call for
// request (c, s) runs inside one of connection c's chunks and inside the
// client's send-to-answer interval of that request; among a connection's
// in-flight requests for the same key, the server answers in order.
func (t *tracer) link(client []span) serverLayers {
	var out serverLayers
	chunks := map[int32][]int{} // conn -> chunk span indexes by start
	var cores []int
	for i := range t.spans {
		s := &t.spans[i]
		if s.remote != "" {
			id, ok := t.conns[s.remote]
			if !ok {
				id = -1
			}
			s.Conn = id
		}
		switch s.Name {
		case "kvserver.chunk":
			chunks[s.Conn] = append(chunks[s.Conn], i)
			out.chunkNs += s.End - s.Start
			out.reads++
		case "net.write":
			out.writeNs += s.End - s.Start
			out.writes++
		case "net.read":
			out.readInChunkNs += s.End - s.Start
			out.reads++
		case "core.put", "core.get":
			cores = append(cores, i)
			out.coreNs += s.End - s.Start
			if s.Name == "core.put" {
				out.putNs = append(out.putNs, s.End-s.Start)
			} else {
				out.getNs = append(out.getNs, s.End-s.Start)
			}
		}
	}
	out.requests = len(cores)
	// Client requests per (conn, key), in send order.
	type req struct {
		seq        int64
		start, end int64
		used       bool
	}
	type reqs struct {
		list []req
		head int // requests before head are matched or answered already
	}
	byKey := map[[2]int32]*reqs{}
	for _, s := range client {
		k := [2]int32{s.Conn, s.Key}
		if byKey[k] == nil {
			byKey[k] = &reqs{}
		}
		byKey[k].list = append(byKey[k].list, req{seq: s.Seq, start: s.Start, end: s.End})
	}
	sort.Slice(cores, func(i, j int) bool { return t.spans[cores[i]].Start < t.spans[cores[j]].Start })
	for _, ci := range cores {
		cs := &t.spans[ci]
		for conn, idx := range chunks {
			j := sort.Search(len(idx), func(j int) bool { return t.spans[idx[j]].End >= cs.End })
			if j == len(idx) || t.spans[idx[j]].Start > cs.Start {
				continue
			}
			var match *req
			if rs := byKey[[2]int32{conn, cs.Key}]; rs != nil {
				// Core spans are visited by start time, so a request
				// answered before this span began can match no later one.
				for rs.head < len(rs.list) && (rs.list[rs.head].used || rs.list[rs.head].end < cs.Start) {
					rs.head++
				}
				for i := rs.head; i < len(rs.list) && rs.list[i].start <= cs.Start; i++ {
					if r := &rs.list[i]; !r.used && cs.End <= r.end {
						match = r
						break
					}
				}
			}
			if match == nil {
				continue
			}
			match.used = true
			ch := &t.spans[idx[j]]
			cs.Conn, cs.Seq, cs.Parent = conn, match.seq, int32(idx[j])
			if rtt := match.end - match.start; rtt > 0 {
				out.rttShare = append(out.rttShare, float64(ch.End-ch.Start)/float64(rtt))
			}
			break
		}
	}
	sort.Slice(out.putNs, func(i, j int) bool { return out.putNs[i] < out.putNs[j] })
	sort.Slice(out.getNs, func(i, j int) bool { return out.getNs[i] < out.getNs[j] })
	sort.Float64s(out.rttShare)
	return out
}

// writeSpans dumps client and server spans as CSV.
func writeSpans(path string, groups ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "index,name,conn,seq,key,start_ns,end_ns,parent")
	i := 0
	for _, g := range groups {
		base := int32(i)
		for _, s := range g {
			p := s.Parent
			if p >= 0 {
				p += base
			}
			fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d,%d\n", i, s.Name, s.Conn, s.Seq, s.Key, s.Start, s.End, p)
			i++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
