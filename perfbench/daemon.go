package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/kvclient"
	"packetstore/internal/kvserver"
	"packetstore/internal/pmem"
)

// daemonCfg is the store geometry pktstored uses with default flags.
var daemonCfg = core.Config{MetaSlots: 65536, DataSlots: 65536, VerifyOnGet: true}

const (
	daemonConns  = 2
	daemonWindow = 8
	daemonWarm   = 2 * time.Second // pktstored's first second runs 20-30% off its steady rate
	daemonTraced = 4 * time.Second
	probeKey     = "probe"
)

// daemonSpec is one workload against pktstored.
type daemonSpec struct {
	keys    int
	putPct  int
	zipf    bool
	preload bool // serve a preloaded image (one record per key) instead of a fresh one
}

// buildImage writes a pktstored image holding version preloadVer of
// every key, through the same constructors pktstored opens it with.
func buildImage(img string, keys int, m *model) error {
	os.Remove(img)
	r, err := pmem.OpenFile(img, daemonCfg.RegionSize(), calib.Off())
	if err != nil {
		return err
	}
	ss, err := core.OpenSharded(r, daemonCfg, 1)
	if err != nil {
		r.Close()
		return err
	}
	val := make([]byte, valueSize)
	for k := 0; k < keys; k++ {
		fillValue(val, k, preloadVer, preloadConn, 0)
		if err := ss.Put(keyName(k), val); err != nil {
			r.Close()
			return fmt.Errorf("preload key %d: %w", k, err)
		}
		m.acked[k].Store(preloadVer)
		m.sent[k].Store(preloadVer)
	}
	if err := r.Close(); err != nil {
		return err
	}
	releaseMemory()
	return nil
}

// flushImage writes the image's dirty pages back to disk now, so that a
// fresh image's writeback does not land inside the measured window.
func flushImage(img string) error {
	f, err := os.OpenFile(img, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// releaseMemory returns a dropped region's pages to the OS, so the next
// deployment's footprint does not stack on top of it.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// daemon is a running pktstored process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
}

// startDaemon launches pktstored with default flags on img, on
// serverCPU when pinned, and returns once it has answered its first
// request, with the time that took.
func startDaemon(bin, img, logPath string, pinned bool) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	d := &daemon{addr: "127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-listen", d.addr, "-pm", img)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however it ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if pinned {
		err = startOn(d.cmd, serverCPU)
	} else {
		err = d.cmd.Start()
	}
	if err != nil {
		return nil, 0, fmt.Errorf("start pktstored: %w", err)
	}
	go func() { d.cmd.Wait(); close(d.exited) }()
	for time.Since(start) < 60*time.Second {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("pktstored exited during start-up (log: %s)", logPath)
		default:
		}
		if c, err := net.DialTimeout("tcp", d.addr, time.Second); err == nil {
			_, _, gerr := kvclient.New(c).Get([]byte(probeKey))
			c.Close()
			if gerr == nil {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, 0, errors.New("pktstored did not answer within 60s")
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// kill sends SIGKILL and waits for the process to be gone. SIGKILL
// leaves the OS page cache intact, so what survives it is what a
// process crash keeps, not what a power loss keeps.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func dialClients(n int, addr string, seed int64, sp daemonSpec, tr *tracer) ([]*client, error) {
	cs := make([]*client, n)
	for i := range cs {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			closeClients(cs)
			return nil, err
		}
		if tr != nil {
			tr.registerClient(c.LocalAddr(), i)
		}
		cs[i] = newClient(i, c, seed, sp.keys, sp.zipf)
		cs[i].tracer = tr
	}
	return cs, nil
}

func closeClients(cs []*client) {
	for _, c := range cs {
		if c != nil {
			c.cl.Close()
		}
	}
}

// lostAfterCrash counts keys written in the run whose last acknowledged
// version did not survive, reading each through get.
func lostAfterCrash(m *model, base uint64, get func(k int) ([]byte, bool, error)) (lost, written int, err error) {
	for k := range m.acked {
		want := m.acked[k].Load()
		if want <= base {
			continue
		}
		written++
		v, ok, err := get(k)
		if err != nil {
			return 0, 0, fmt.Errorf("read back key %d: %w", k, err)
		}
		if !ok {
			lost++
			continue
		}
		if h, err := decodeValue(v); err != nil || h.key != k || h.ver != want {
			lost++
		}
	}
	return lost, written, nil
}

func (sp daemonSpec) base() uint64 {
	if sp.preload {
		return preloadVer
	}
	return 0
}

// runDaemon measures the real pktstored binary over loopback.
func runDaemon(rc *runCtx, sp daemonSpec) error {
	img := filepath.Join(rc.dir, "store.img")
	logPath := filepath.Join(rc.dir, "pktstored.log")
	m := newModel(sp.keys)
	if sp.preload {
		if err := buildImage(img, sp.keys, m); err != nil {
			return err
		}
	}
	if rc.pinned = canPin(); rc.pinned {
		if err := pinProcess(generatorCPU); err != nil {
			return err
		}
		defer pinProcess(allCPUs)
	}
	var d *daemon
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.kill()
		}
		if !sp.preload {
			os.Remove(img)
		}
		var t time.Duration
		var err error
		if d, t, err = startDaemon(rc.pktstored, img, logPath, rc.pinned); err != nil {
			return err
		}
		setups = append(setups, t.Seconds())
	}
	defer func() { d.kill() }()
	if err := flushImage(img); err != nil {
		return err
	}

	// This process is only the load generator here. Each answer it reads
	// is garbage right away; a larger GC target keeps collections, and the
	// CPU they take from pktstored, rare.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	cs, err := dialClients(daemonConns, d.addr, rc.seed, sp, nil)
	if err != nil {
		return err
	}
	defer func() { closeClients(cs) }()
	rc.clients = cs
	mx := newMix(sp.keys, sp.putPct, daemonConns, sp.zipf, rc.seed)
	from := time.Now().Add(daemonWarm)
	to := from.Add(rc.window)
	setWindow(cs, from, to)
	if err := drive(cs, daemonWindow, mixSource(mx, m), to, m); err != nil {
		return err
	}
	w := collect(cs)
	var gets *window
	if !sp.preload {
		rb, err := readBack(cs, daemonWindow, sp.keys, m, rc.window/readbackShare)
		if err != nil {
			return err
		}
		gets = &rb
	}
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return err
	}
	rc.endToEnd(w, gets, median(setups), rss)

	// Durability probe: SIGKILL the server, restart it on the same image
	// and read back every key this run wrote.
	closeClients(cs)
	d.kill()
	restarted, _, err := startDaemon(rc.pktstored, img, logPath, rc.pinned)
	if err != nil {
		return err
	}
	d = restarted
	c, err := net.Dial("tcp", d.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	rd := kvclient.New(c)
	lost, written, err := lostAfterCrash(m, sp.base(), func(k int) ([]byte, bool, error) { return rd.Get(keyName(k)) })
	if err != nil {
		return err
	}
	rc.probe(lost, written, "SIGKILL of pktstored, restart on the same image")
	return nil
}

// runDaemonTraced serves the workload from an in-process daemon, then
// checks which acknowledged writes survive its death. The daemon's
// process death is emulated: its region is dropped without Sync or
// Close, which is all a SIGKILL skips, and the image is reopened the way
// pktstored opens it on restart.
func runDaemonTraced(rc *runCtx, sp daemonSpec) error {
	img := filepath.Join(rc.dir, "store.img")
	m := newModel(sp.keys)
	if sp.preload {
		if err := buildImage(img, sp.keys, m); err != nil {
			return err
		}
	} else {
		os.Remove(img)
	}
	if err := serveTraced(rc, sp, img, m); err != nil {
		return err
	}
	releaseMemory()
	r, err := pmem.OpenFile(img, daemonCfg.RegionSize(), calib.Off())
	if err != nil {
		return err
	}
	ss, err := core.OpenSharded(r, daemonCfg, 1)
	if err != nil {
		return err
	}
	lost, written, err := lostAfterCrash(m, sp.base(), func(k int) ([]byte, bool, error) { return ss.Get(keyName(k)) })
	if err != nil {
		return err
	}
	rc.probe(lost, written, "in-process daemon dropped without Sync/Close, image reopened")
	return nil
}

// serveTraced runs the workload against a daemon wired like cmd/pktstored
// (pmem.OpenFile, core.OpenSharded, NetServer and Healer), with the
// listener and the backend wrapped so that socket, server and store time
// can be told apart. It returns with the daemon stopped but its region
// neither synced nor closed.
func serveTraced(rc *runCtx, sp daemonSpec, img string, m *model) error {
	t0 := time.Now()
	r, err := pmem.OpenFile(img, daemonCfg.RegionSize(), calib.Off())
	if err != nil {
		return err
	}
	t1 := time.Now()
	ss, err := core.OpenSharded(r, daemonCfg, 1)
	if err != nil {
		return err
	}
	rc.layer("pmem.open_s", t1.Sub(t0).Seconds())
	rc.layer("core.open_s", time.Since(t1).Seconds())
	if err := flushImage(img); err != nil {
		return err
	}

	tr := newTracer()
	lst, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := kvserver.NewNetServerWithConfig(tracedListener{lst, tr},
		tracedBackend{kvserver.ShardedPktStore{S: ss}, tr}, kvserver.Config{})
	healer := kvserver.NewHealer(ss, kvserver.HealConfig{ScrubInterval: 5 * time.Millisecond})
	go healer.Run()
	srv.SetHealthSource(healer.Health)
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	stop := func() {
		healer.Close()
		srv.Close()
		<-served
	}

	cs, err := dialClients(daemonConns, lst.Addr().String(), rc.seed, sp, tr)
	if err != nil {
		stop()
		return err
	}
	rc.clients = cs
	mx := newMix(sp.keys, sp.putPct, daemonConns, sp.zipf, rc.seed)
	src := mixSource(mx, m)
	// The window is split into an untraced and a traced phase; the traced
	// one is capped because every request leaves several spans in memory.
	tracedLen := min(rc.window/2, daemonTraced)

	from := time.Now().Add(daemonWarm)
	setWindow(cs, from, from.Add(rc.window-tracedLen))
	gc0 := gcPause()
	if err := drive(cs, daemonWindow, src, from.Add(rc.window-tracedLen), m); err != nil {
		stop()
		return err
	}
	untraced := collect(cs)
	rc.clientTails(untraced)

	pm0, st0, h0, at := r.Stats(), ss.Stats(), healer.Stats(), time.Now()
	tr.on.Store(true)
	setWindow(cs, at, at.Add(tracedLen))
	if err := drive(cs, daemonWindow, src, at.Add(tracedLen), m); err != nil {
		stop()
		return err
	}
	tr.on.Store(false)
	pm1, st1, h1, secs := r.Stats(), ss.Stats(), healer.Stats(), time.Since(at).Seconds()
	traced := collect(cs)
	rc.layer("bench.gc_pause_ms", (gcPause()-gc0).Seconds()*1e3)
	closeClients(cs)
	stop()

	var clientSpans []span
	for _, c := range cs {
		clientSpans = append(clientSpans, c.spans...)
	}
	sl := tr.link(clientSpans)
	req := float64(max(sl.requests, 1))
	rc.layer("net.reads_per_req", float64(sl.reads)/req)
	rc.layer("net.writes_per_req", float64(sl.writes)/req)
	rc.layer("net.write_us_per_req", float64(sl.writeNs)/req/1e3)
	rc.layer("kvserver.self_us_per_req", float64(sl.chunkNs-sl.coreNs-sl.writeNs-sl.readInChunkNs)/req/1e3)
	rc.layer("kvserver.rtt_share", median(sl.rttShare))
	rc.layer("core.put_us_p50", pct(sl.putNs, 0.5))
	rc.layer("core.put_us_p99", pct(sl.putNs, 0.99))
	rc.layer("core.get_us_p50", pct(sl.getNs, 0.5))
	rc.layer("core.get_us_p99", pct(sl.getNs, 0.99))
	rc.samples["core.put"] = len(sl.putNs)
	rc.samples["core.get"] = len(sl.getNs)
	rc.samples["kvserver.rtt_share"] = len(sl.rttShare)
	gets := float64(st1.Gets - st0.Gets)
	rc.layer("core.fast_get_ratio", ratio(float64(st1.FastGets-st0.FastGets), gets))
	rc.layer("core.fast_get_retries_per_get", ratio(float64(st1.FastGetRetries-st0.FastGetRetries), gets))
	rc.pmemLayers(pm0, pm1, float64(st1.Puts-st0.Puts), 0)
	rc.layer("heal.scrub_passes_per_s", float64(h1.ScrubPasses-h0.ScrubPasses)/secs)
	rc.layer("bench.trace_overhead", 1-ratio(traced.rate(), untraced.rate()))
	return writeSpans(filepath.Join(rc.out, rc.workload+".spans.csv"), clientSpans, tr.spans)
}
