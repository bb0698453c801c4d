package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"packetstore/internal/kvclient"
)

const (
	valueSize   = 1024
	valueMagic  = 0x31424650 // "PFB1"
	preloadVer  = 1          // version of every record in a preloaded image
	preloadConn = 0xffff     // writer id stamped on preloaded records
)

// keyName is the store key for key index i. Fixed width keeps every
// request the same size, so modelled per-PUT costs do not depend on
// which keys a run happens to draw.
func keyName(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

// keyIndex parses a keyName back to its index (-1 if malformed).
func keyIndex(k []byte) int {
	if len(k) != 10 || string(k[:4]) != "key-" {
		return -1
	}
	n := 0
	for _, c := range k[4:] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// fillValue writes a value that encodes its key, writer connection,
// request sequence number and per-key version; the rest of the value
// is a pattern derived from those fields, so any torn, misplaced or
// stale value fails decodeValue or the model's check.
func fillValue(b []byte, key int, ver uint64, writer int, seq int64) {
	binary.LittleEndian.PutUint32(b[0:], valueMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(writer))
	binary.LittleEndian.PutUint64(b[8:], uint64(key))
	binary.LittleEndian.PutUint64(b[16:], ver)
	binary.LittleEndian.PutUint64(b[24:], uint64(seq))
	w := pattern(b[:32])
	for i := 32; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], w^uint64(i))
	}
}

func pattern(hdr []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range hdr {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// valueHdr is what the checker reads back from a value's header.
type valueHdr struct {
	key int
	ver uint64
}

// decodeValue checks that b is a whole, intact benchmark value and
// returns its key and version.
func decodeValue(b []byte) (valueHdr, error) {
	if len(b) != valueSize || binary.LittleEndian.Uint32(b) != valueMagic {
		return valueHdr{}, fmt.Errorf("value of %d bytes is not a benchmark value", len(b))
	}
	h := valueHdr{
		key: int(binary.LittleEndian.Uint64(b[8:])),
		ver: binary.LittleEndian.Uint64(b[16:]),
	}
	w := pattern(b[:32])
	for i := 32; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != w^uint64(i) {
			return h, fmt.Errorf("value body corrupt at byte %d", i)
		}
	}
	return h, nil
}

// model is the checker's view of the store: for every key the latest
// acknowledged version and the latest version sent. Each key's writes
// come from one connection only (see mix.pick), and a connection's
// requests are answered in order, so versions land in version order.
type model struct {
	acked []atomic.Uint64
	sent  []atomic.Uint64
}

func newModel(keys int) *model {
	return &model{acked: make([]atomic.Uint64, keys), sent: make([]atomic.Uint64, keys)}
}

// checkGet judges a GET answer for key k. lo is the version acknowledged
// when the GET was sent: the store must return at least that. It may
// return anything sent since (a write racing the read), never more.
func (m *model) checkGet(k int, lo uint64, status int, body []byte) error {
	hi := m.sent[k].Load()
	switch status {
	case 404:
		if lo != 0 {
			return fmt.Errorf("key %d: 404 after version %d was acknowledged", k, lo)
		}
		return nil
	case 200:
	default:
		return fmt.Errorf("key %d: GET status %d", k, status)
	}
	h, err := decodeValue(body)
	if err != nil {
		return fmt.Errorf("key %d: %v", k, err)
	}
	if h.key != k {
		return fmt.Errorf("key %d: got the value of key %d", k, h.key)
	}
	if h.ver < lo || h.ver > hi {
		return fmt.Errorf("key %d: version %d outside [%d, %d]", k, h.ver, lo, hi)
	}
	return nil
}

// op is one request in flight.
type op struct {
	put  bool
	key  int
	ver  uint64 // PUT: version written; GET: version acknowledged at send
	seq  int64
	sent time.Time
}

// client is one connection of the closed-loop generator. Only its own
// goroutine touches it while a drive is running.
type client struct {
	id     int
	cl     *kvclient.Client
	out    *bufio.Writer
	rng    *rand.Rand
	zipf   *rand.Zipf
	seq    int64
	val    []byte
	queue  []op
	rec    recorder
	spans  []span // kvclient.rtt spans, when tracing
	tracer *tracer

	// Every checked answer of the run, warm-up and read-back included.
	attempted, failed int
	errs              []string
}

// batchConn holds a round's requests until flush, so that they leave in
// one write.
type batchConn struct {
	kvclient.Conn
	w *bufio.Writer
}

func (b batchConn) Write(p []byte) (int, error) { return b.w.Write(p) }

func newClient(id int, c kvclient.Conn, seed int64, keys int, zipf bool) *client {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(id)))
	bc := batchConn{c, bufio.NewWriterSize(c, 64<<10)}
	cl := &client{id: id, cl: kvclient.New(bc), out: bc.w, rng: rng, val: make([]byte, valueSize)}
	if zipf {
		cl.zipf = rand.NewZipf(rng, 1.1, 1, uint64(keys-1))
	}
	return cl
}

// mix is a workload's request mix.
type mix struct {
	keys   int
	putPct int
	perm   []int // Zipf rank -> key, so hot keys are spread over the keyspace
	conns  int
}

func newMix(keys, putPct, conns int, zipf bool, seed int64) mix {
	m := mix{keys: keys, putPct: putPct, conns: conns}
	if zipf {
		m.perm = rand.New(rand.NewSource(seed)).Perm(keys)
	}
	return m
}

// pick draws the next request for connection c. A connection only
// writes keys k with k mod conns == c.id, which keeps every key's
// writes in order without coordination between connections.
func (m mix) pick(c *client) (put bool, k int) {
	put = c.rng.Intn(100) < m.putPct
	for {
		if c.zipf != nil {
			k = m.perm[c.zipf.Uint64()]
		} else {
			k = c.rng.Intn(m.keys)
		}
		if !put || k%m.conns == c.id {
			return put, k
		}
	}
}

// recorder collects one connection's outcomes inside the measured
// window, split into slices of about a second (see window).
type recorder struct {
	from, to time.Time
	slice    time.Duration
	n        int // slices in [from, to]
	slices   []slice
	steal    func() []int64 // stops the window's steal log, see watchSteal
}

// slice is what one connection saw in one slice of the window: ops
// answered, and latencies (ns) of ops sent and answered correctly in it.
type slice struct {
	done           int
	putLat, getLat []int64
}

func (r *recorder) inWindow(t time.Time) bool { return !t.Before(r.from) && !t.After(r.to) }

func (r *recorder) at(t time.Time) *slice {
	i := min(int(t.Sub(r.from)/r.slice), r.n-1)
	for len(r.slices) <= i {
		r.slices = append(r.slices, slice{})
	}
	return &r.slices[i]
}

// source yields the next request for a connection, or false when it has
// nothing more to send.
type source func(c *client) (op, bool)

// drive runs every client in its own goroutine as a closed loop in
// rounds: a client writes inFlight requests at once, as wrk does when it
// pipelines, and sends the next round when all of them are answered. It
// stops when src is exhausted or stopAt passes. Writing a round in one
// go keeps the requests per server read fixed; a sliding window lets
// that drift with timing, and throughput between runs drifts with it.
// Every answer is checked against m; outcomes inside each client's
// recorder window are recorded. A transport error ends the drive.
func drive(cs []*client, inFlight int, src source, stopAt time.Time, m *model) error {
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = c.loop(inFlight, src, stopAt, m)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *client) loop(inFlight int, src source, stopAt time.Time, m *model) error {
	c.queue = c.queue[:0]
	head := 0
	for {
		if head == len(c.queue) {
			c.queue, head = c.queue[:0], 0
			for len(c.queue) < inFlight && time.Now().Before(stopAt) {
				o, ok := src(c)
				if !ok {
					break
				}
				o.seq = c.seq
				c.seq++
				if err := c.send(&o); err != nil {
					return err
				}
				c.queue = append(c.queue, o)
			}
			if len(c.queue) == 0 {
				return nil
			}
			if err := c.out.Flush(); err != nil {
				return fmt.Errorf("conn %d: %w", c.id, err)
			}
		}
		status, body, err := c.cl.Recv()
		if err != nil {
			return fmt.Errorf("conn %d: %w", c.id, err)
		}
		done := time.Now()
		o := c.queue[head]
		head++
		c.finish(&o, status, body, done, m)
	}
}

func (c *client) send(o *op) error {
	path := "/k/" + string(keyName(o.key))
	o.sent = time.Now()
	if !o.put {
		return c.cl.Send("GET", path, nil)
	}
	fillValue(c.val, o.key, o.ver, c.id, o.seq)
	return c.cl.Send("PUT", path, c.val)
}

func (c *client) finish(o *op, status int, body []byte, done time.Time, m *model) {
	var err error
	if o.put {
		if status == 200 || status == 201 {
			m.acked[o.key].Store(o.ver)
		} else {
			err = fmt.Errorf("key %d: PUT status %d", o.key, status)
		}
	} else {
		err = m.checkGet(o.key, o.ver, status, body)
	}
	if c.tracer != nil && c.tracer.on.Load() {
		c.spans = append(c.spans, span{Name: "kvclient.rtt", Conn: int32(c.id), Seq: o.seq,
			Key: int32(o.key), Start: c.tracer.ns(o.sent), End: c.tracer.ns(done), Parent: -1})
	}
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 10 {
			c.errs = append(c.errs, err.Error())
		}
	}
	r := &c.rec
	if !r.inWindow(done) {
		return
	}
	sl := r.at(done)
	sl.done++
	if err != nil || !r.inWindow(o.sent) {
		return
	}
	lat := done.Sub(o.sent).Nanoseconds()
	if o.put {
		sl.putLat = append(sl.putLat, lat)
	} else {
		sl.getLat = append(sl.getLat, lat)
	}
}

// mixSource draws requests from mx; PUTs take the next version of their key.
func mixSource(mx mix, m *model) source {
	return func(c *client) (op, bool) {
		put, k := mx.pick(c)
		if put {
			v := m.sent[k].Load() + 1
			m.sent[k].Store(v)
			return op{put: true, key: k, ver: v}, true
		}
		return op{key: k, ver: m.acked[k].Load()}, true
	}
}

// readbackSource GETs every key in turn, shared across connections,
// until it has read each key once and until has passed.
func readbackSource(keys int, m *model, until time.Time) source {
	var next atomic.Int64
	return func(c *client) (op, bool) {
		i := int(next.Add(1) - 1)
		if i >= keys && time.Now().After(until) {
			return op{}, false
		}
		k := i % keys
		return op{key: k, ver: m.acked[k].Load()}, true
	}
}

// readBack runs a read-back phase after a PUT window and returns it: it
// checks every write, and gives a PUT workload its GET figures.
func readBack(cs []*client, inFlight, keys int, m *model, d time.Duration) (window, error) {
	start := time.Now()
	far := start.Add(time.Hour)
	setWindow(cs, start, far)
	if err := drive(cs, inFlight, readbackSource(keys, m, start.Add(d)), far, m); err != nil {
		return window{}, err
	}
	return collect(cs), nil
}

// sliceLen is the length of the slices a window is cut into. It is
// short so that a moment the hypervisor takes the CPU away spoils little
// of a run (see window).
const sliceLen = 200 * time.Millisecond

// setWindow resets every client's recorder to the window [from, to],
// cut into equal slices of about sliceLen, and starts logging the host's
// steal time at the slice boundaries; collect stops the log.
func setWindow(cs []*client, from, to time.Time) {
	n := max((to.Sub(from)+sliceLen/2)/sliceLen, 1)
	st := watchSteal(from, to.Sub(from)/n)
	for _, c := range cs {
		c.rec = recorder{from: from, to: to, slice: to.Sub(from) / n, n: int(n), steal: st}
	}
}

// window is every client's recorder merged, slice by slice. A figure is
// taken in each slice and the median over slices reported, so a stall
// of a fraction of a second moves one slice, not the run's result.
//
// On a virtual machine, other tenants of the host take CPU time from it
// (steal time). One stolen tick of 10 ms stalls every request in flight
// for that long, which is more than 1% of a slice's requests, so it
// sets the slice's p99 by itself. Slices in which the host stole any
// time, or in the slice before (whose stalls end in this one), are left
// out; see kept.
type window struct {
	slices []slice
	slice  time.Duration
	steal  []int64 // host steal ticks at each slice boundary
}

// watchSteal logs the host's steal ticks at from + i*slice, i = 0, 1, ...
// until the returned function stops it and returns the log.
func watchSteal(from time.Time, slice time.Duration) func() []int64 {
	var log []int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			t := time.NewTimer(time.Until(from.Add(time.Duration(i) * slice)))
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
				log = append(log, stealTicks())
			}
		}
	}()
	var once sync.Once
	return func() []int64 {
		once.Do(func() { close(stop); <-done })
		return log
	}
}

// stolen is the host steal, in ticks, that can have stalled the answers
// of each slice: in the slice itself and in the one before it. A slice
// past the end of the log counts as clean.
func (w window) stolen() []int64 {
	st := make([]int64, len(w.slices))
	for i := range st {
		for j := max(i-1, 0); j <= i && j+1 < len(w.steal); j++ {
			st[i] += w.steal[j+1] - w.steal[j]
		}
	}
	return st
}

// kept lists the slices the figures come from: the clean ones, with no
// steal, when at least a quarter of the slices are clean; otherwise the
// quarter with the least steal (and any tied with it).
func (w window) kept() []slice {
	st := w.stolen()
	if len(st) == 0 {
		return nil
	}
	least := append([]int64(nil), st...)
	sort.Slice(least, func(i, j int) bool { return least[i] < least[j] })
	limit := least[(len(least)+3)/4-1]
	var keep []slice
	for i, s := range w.slices {
		if st[i] <= limit {
			keep = append(keep, s)
		}
	}
	return keep
}

func collect(cs []*client) window {
	var w window
	for _, c := range cs {
		w.slice = c.rec.slice
		w.steal = c.rec.steal()
		for i, s := range c.rec.slices {
			if i == len(w.slices) {
				w.slices = append(w.slices, slice{})
			}
			ws := &w.slices[i]
			ws.done += s.done
			ws.putLat = append(ws.putLat, s.putLat...)
			ws.getLat = append(ws.getLat, s.getLat...)
		}
	}
	return w
}

// rate is the median over kept slices of answers per second.
func (w window) rate() float64 {
	var v []float64
	for _, s := range w.kept() {
		v = append(v, float64(s.done)/w.slice.Seconds())
	}
	return median(v)
}

// series lists every slice's figures, kept or not, for the results
// file: the spread within a run, and the steal behind it, next to the
// medians reported.
func (w window) series(gets window) map[string][]float64 {
	sr := map[string][]float64{}
	for i, s := range w.slices {
		sr["ops_per_s"] = append(sr["ops_per_s"], float64(s.done)/w.slice.Seconds())
		sr["put_p90_us"] = append(sr["put_p90_us"], pct(s.putLat, 0.9))
		if i+1 < len(w.steal) {
			sr["steal_ticks"] = append(sr["steal_ticks"], float64(w.steal[i+1]-w.steal[i]))
		}
	}
	for _, s := range gets.slices {
		sr["get_p90_us"] = append(sr["get_p90_us"], pct(s.getLat, 0.9))
	}
	return sr
}

// minSliceSamples is the fewest latencies a percentile is taken over:
// p99 then has at least ten samples beyond it.
const minSliceSamples = 1000

// latency returns a q-quantile of PUT (or GET) latency in µs, and the
// samples behind it. Kept slices are taken in order and pooled into
// groups of at least minSliceSamples latencies (one slice each when the
// rate is high); the median over groups of each group's quantile is
// reported. With fewer samples than one group, all of them are pooled.
func (w window) latency(put bool, q float64) (us float64, samples int) {
	var v []float64
	var group []int64
	for _, s := range w.kept() {
		lat := s.getLat
		if put {
			lat = s.putLat
		}
		group = append(group, lat...)
		if len(group) >= minSliceSamples {
			v = append(v, pct(group, q))
			samples += len(group)
			group = group[:0]
		}
	}
	if len(v) == 0 {
		return pct(group, q), len(group)
	}
	return median(v), samples
}

// pct is the nearest-rank q-quantile of ns samples, in µs.
func pct(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(float64(len(s))*q+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e3
}
