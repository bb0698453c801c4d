package main

import (
	"path/filepath"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/host"
	"packetstore/internal/kvclient"
	"packetstore/internal/kvserver"
	"packetstore/internal/latency"
	"packetstore/internal/pmem"
)

const (
	simKeys = 16384
	simWarm = time.Second
	// simTraceOps is the PUT count per second of --seconds that the
	// traced run splits over its untraced and traced phases, about what
	// this host completes in a second. The traced run counts operations
	// instead of timing them so that its modelled costs repeat exactly
	// for a seed.
	simTraceOps = 14000
)

// simCfg is the daemon's store geometry with the paper's checksum reuse.
var simCfg = core.Config{MetaSlots: 65536, DataSlots: 65536, ChecksumReuse: true}

// simDeployment is the simulated testbed serving a one-shard packetstore
// in PASTE mode: the server NIC receives into the store's PM pool.
type simDeployment struct {
	r   *pmem.Region
	ss  *core.ShardedStore
	tb  *host.Testbed
	srv *kvserver.Server
	cl  *client

	pmemOpen, coreOpen, setup time.Duration
}

func deploySim(prof calib.Profile, seed int64) (*simDeployment, error) {
	d := &simDeployment{}
	t0 := time.Now()
	d.r = pmem.New(simCfg.RegionSize(), prof)
	t1 := time.Now()
	ss, err := core.OpenSharded(d.r, simCfg, 1)
	if err != nil {
		return nil, err
	}
	d.ss = ss
	d.pmemOpen, d.coreOpen = t1.Sub(t0), time.Since(t1)
	d.tb = host.NewTestbed(host.Options{Profile: prof, ServerRxPools: ss.Pools()})
	d.srv, err = kvserver.NewWithConfig(d.tb.Server.Stack, 80, kvserver.ShardedPktStore{S: ss}, kvserver.Config{})
	if err != nil {
		d.tb.Close()
		return nil, err
	}
	go d.srv.Run()
	c, err := d.tb.Dial(80)
	if err != nil {
		d.close()
		return nil, err
	}
	d.cl = newClient(0, c, seed, simKeys, false)
	if _, _, err := kvclient.New(c).Get([]byte(probeKey)); err != nil {
		d.close()
		return nil, err
	}
	d.setup = time.Since(t0)
	return d, nil
}

func (d *simDeployment) close() {
	d.srv.Close()
	d.tb.Close()
}

// countSource passes through n requests of src, then stops.
func countSource(src source, n int) source {
	return func(c *client) (op, bool) {
		if n == 0 {
			return op{}, false
		}
		n--
		return src(c)
	}
}

// runSim measures the simulated testbed with the paper's latency profile:
// one connection, one request in flight, uniform PUTs.
func runSim(rc *runCtx) error {
	prof := calib.Paper()
	rc.profile = prof.Name
	var d *simDeployment
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.close()
			d = nil
			releaseMemory()
		}
		var err error
		if d, err = deploySim(prof, rc.seed); err != nil {
			return err
		}
		setups = append(setups, d.setup.Seconds())
	}
	defer d.close()
	cs := []*client{d.cl}
	rc.clients = cs
	m := newModel(simKeys)
	mx := newMix(simKeys, 100, 1, false, rc.seed)
	from := time.Now().Add(simWarm)
	to := from.Add(rc.window)
	setWindow(cs, from, to)
	if err := drive(cs, 1, mixSource(mx, m), to, m); err != nil {
		return err
	}
	w := collect(cs)
	gets, err := readBack(cs, 1, simKeys, m, rc.window/readbackShare)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	rc.endToEnd(w, &gets, median(setups), rss)
	return nil
}

// runSimTraced runs fixed PUT counts: a warm-up, an untraced phase and a
// traced phase whose counter deltas give the per-layer figures. Only the
// client is traced: wrapping the backend would switch off zero-copy.
func runSimTraced(rc *runCtx) error {
	prof := calib.Paper()
	rc.profile = prof.Name
	d, err := deploySim(prof, rc.seed)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			d.close()
		}
	}()
	rc.layer("pmem.open_s", d.pmemOpen.Seconds())
	rc.layer("core.open_s", d.coreOpen.Seconds())
	tr := newTracer()
	d.cl.tracer = tr
	cs := []*client{d.cl}
	rc.clients = cs
	m := newModel(simKeys)
	src := mixSource(newMix(simKeys, 100, 1, false, rc.seed), m)
	n := int(rc.window.Seconds()*simTraceOps/2) + 1
	far := time.Now().Add(time.Hour)
	// phase runs n PUTs and returns their rate and window.
	phase := func() (float64, window, error) {
		start := time.Now()
		setWindow(cs, start, far)
		err := drive(cs, 1, countSource(src, n), far, m)
		return float64(n) / time.Since(start).Seconds(), collect(cs), err
	}
	if err := drive(cs, 1, countSource(src, simKeys), far, m); err != nil {
		return err
	}
	gc0 := gcPause()
	untraced, w, err := phase()
	if err != nil {
		return err
	}
	rc.clientTails(w)
	pm0, sv0, nc0, spun0 := d.r.Stats(), d.srv.Stats(), d.tb.Server.NIC.Stats(), latency.TotalSpun()
	tr.on.Store(true)
	traced, _, err := phase()
	tr.on.Store(false)
	if err != nil {
		return err
	}
	pm1, sv1, nc1, spun1 := d.r.Stats(), d.srv.Stats(), d.tb.Server.NIC.Stats(), latency.TotalSpun()
	rc.layer("bench.gc_pause_ms", (gcPause()-gc0).Seconds()*1e3)
	rc.layer("bench.trace_overhead", 1-ratio(traced, untraced))

	reqs := float64(sv1.Requests - sv0.Requests)
	puts := float64(sv1.Puts - sv0.Puts)
	rc.pmemLayers(pm0, pm1, puts, spun1-spun0)
	rc.layer("kvserver.busy_us_per_req", ratio((sv1.BusyTime-sv0.BusyTime).Seconds()*1e6, reqs))
	rc.layer("kvserver.parse_us_per_req", ratio((sv1.ParseTime-sv0.ParseTime).Seconds()*1e6, reqs))
	rc.layer("kvserver.zero_copy_ratio", ratio(float64(sv1.ZeroCopyPuts-sv0.ZeroCopyPuts), puts))
	derived := float64(sv1.DerivedSums - sv0.DerivedSums)
	rc.layer("kvserver.derived_sum_ratio", ratio(derived, derived+float64(sv1.SoftwareSums-sv0.SoftwareSums)))
	rc.layer("nic.packets_per_req", ratio(float64(nc1.RxPackets-nc0.RxPackets+nc1.TxPackets-nc0.TxPackets), reqs))
	if err := writeSpans(filepath.Join(rc.out, rc.workload+".spans.csv"), d.cl.spans); err != nil {
		return err
	}

	// Power cut on the simulated PM: unfenced lines are dropped at random
	// (pmem.Region.Crash), then the store recovers from what is durable.
	d.close()
	closed = true
	pmem.SetCrashLogger(func(int64) {})
	d.r.Crash(rc.seed)
	ss, err := core.OpenSharded(d.r, simCfg, 1)
	if err != nil {
		return err
	}
	lost, written, err := lostAfterCrash(m, 0, func(k int) ([]byte, bool, error) { return ss.Get(keyName(k)) })
	if err != nil {
		return err
	}
	rc.probe(lost, written, "simulated power cut (pmem.Region.Crash), store recovered")
	return nil
}
