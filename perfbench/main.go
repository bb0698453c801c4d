// Command perfbench is packetstore's benchmark. It drives three
// closed-loop workloads of 1 KB values, checks every answer, and prints
// one JSON result line:
//
//	sim_put      the simulated testbed with the paper's latency profile,
//	             PASTE ingest and checksum reuse, 1 connection with 1
//	             request in flight, PUTs uniform over 16,384 keys; then
//	             every key is read back.
//	daemon_put   the pktstored binary with default flags on a fresh
//	             image over loopback, 2 connections x 8 pipelined, PUTs
//	             uniform over 16,384 keys; then every key is read back.
//	daemon_read  pktstored restarted on a preloaded 60,000-record image,
//	             2 connections x 8 pipelined, 95% GET / 5% PUT, keys
//	             drawn Zipf s = 1.1.
//
// Pipelined connections write their 8 requests at once and wait for all
// 8 answers, as wrk does. The PUT workloads take their GET figures from
// the read-back. Throughput and percentiles are taken per slice of
// 200 ms of the measured window, leaving out slices the hypervisor stole
// CPU time in (see window), and the median over slices is reported.
//
// The end-to-end tail figure is p90, not p99: on a shared virtual host,
// one stolen tick stalls more than 1% of a slice's requests, and p99
// then follows the host's load from run to run. Each run still records
// its p99 latencies in the results file, and the traced run reports them
// per layer (kvclient.put_us_p99, kvclient.get_us_p99).
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// the workload again with every layer timed or counted from outside and
// prints the per-layer metrics. A per-layer metric whose layer is not on
// the workload's path (no simulated NIC behind pktstored, no socket in
// the simulator) reads 0 and is listed under not_on_path in the results
// file. Runs end with a durability probe: acknowledged writes are read
// back after the server dies (a real SIGKILL of pktstored in the
// end-to-end daemon runs, an emulated one in the traced daemon runs, a
// simulated power cut in the traced sim_put run). SIGKILL leaves the OS
// page cache intact, so it measures process-crash durability, not power
// loss.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this program and cmd/pktstored into .bench_build:
//
//	bash perfbench/run.sh --workload daemon_put --seed 1 --seconds 10 --trace 0
//
// The benchmark's own tests run with: cd perfbench && go test ./...
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"packetstore/internal/pmem"
)

// setupRuns is how many times each run sets the server up; setup_s is
// the median.
const setupRuns = 5

// readbackShare sizes the read-back phase of the PUT workloads: it lasts
// 1/readbackShare of the measured window, and at least one pass over
// every key. Its GET figures are medians over its seconds like the
// window's, so it needs a good number of them.
const readbackShare = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits and layerUnits name every metric a run prints, with its
// unit; BENCHMARK.json lists the same names.
var endToEndUnits = map[string]string{
	"throughput_ops": "ops/s",
	"put_p50_us":     "us",
	"put_p90_us":     "us",
	"get_p50_us":     "us",
	"get_p90_us":     "us",
	"setup_s":        "s",
	"rss_mb":         "MB",
}

var layerUnits = map[string]string{
	"kvclient.put_us_p99":           "us",
	"kvclient.get_us_p99":           "us",
	"net.reads_per_req":             "calls/req",
	"net.writes_per_req":            "calls/req",
	"net.write_us_per_req":          "us",
	"kvserver.self_us_per_req":      "us",
	"kvserver.rtt_share":            "ratio",
	"core.put_us_p50":               "us",
	"core.put_us_p99":               "us",
	"core.get_us_p50":               "us",
	"core.get_us_p99":               "us",
	"core.fast_get_ratio":           "ratio",
	"core.fast_get_retries_per_get": "count/get",
	"pmem.lines_flushed_per_put":    "lines/put",
	"pmem.fences_per_put":           "fences/put",
	"pmem.bytes_written_per_put":    "B/put",
	"pmem.modeled_ns_per_put":       "ns",
	"pmem.open_s":                   "s",
	"core.open_s":                   "s",
	"heal.scrub_passes_per_s":       "1/s",
	"latency.spun_us_per_put":       "us",
	"kvserver.busy_us_per_req":      "us",
	"kvserver.parse_us_per_req":     "us",
	"kvserver.zero_copy_ratio":      "ratio",
	"kvserver.derived_sum_ratio":    "ratio",
	"nic.packets_per_req":           "pkts/req",
	"acked_lost_ratio":              "ratio",
	"bench.gc_pause_ms":             "ms",
	"bench.trace_overhead":          "ratio",
}

// runCtx is one benchmark run: its inputs and what it measured.
type runCtx struct {
	workload  string
	seed      int64
	window    time.Duration
	trace     bool
	pktstored string
	out, dir  string
	profile   string
	pinned    bool // pktstored and generator on CPUs of their own (pin.go)

	clients []*client
	metrics map[string]metric
	samples map[string]int
	probes  []string
	slices  map[string][]float64 // per-slice figures of the end-to-end run
	tails   map[string]float64   // p99 latencies of the end-to-end run: recorded, not printed
	stealS  float64              // CPU time the hypervisor took from this host during the run
}

func (rc *runCtx) set(units map[string]string, name string, v float64) {
	rc.metrics[name] = metric{Value: v, Unit: units[name]}
}

func (rc *runCtx) layer(name string, v float64) { rc.set(layerUnits, name, v) }

// endToEnd reports the measured window; gets, when given, is the
// read-back phase a PUT workload takes its GET figures from.
func (rc *runCtx) endToEnd(w window, gets *window, setupS, rssMB float64) {
	if gets == nil {
		gets = &w
	}
	rc.set(endToEndUnits, "throughput_ops", w.rate())
	for _, p := range []struct {
		name string
		w    window
		put  bool
		q    float64
	}{{"put_p50_us", w, true, 0.5}, {"put_p90_us", w, true, 0.9},
		{"get_p50_us", *gets, false, 0.5}, {"get_p90_us", *gets, false, 0.9}} {
		us, n := p.w.latency(p.put, p.q)
		rc.set(endToEndUnits, p.name, us)
		rc.samples[p.name] = n
	}
	rc.tails["put_p99_us"], rc.samples["put_p99_us"] = w.latency(true, 0.99)
	rc.tails["get_p99_us"], rc.samples["get_p99_us"] = gets.latency(false, 0.99)
	rc.slices = w.series(*gets)
	rc.samples["throughput_slices"] = len(w.kept())
	rc.samples["window_slices"] = len(w.slices)
	rc.set(endToEndUnits, "setup_s", setupS)
	rc.set(endToEndUnits, "rss_mb", rssMB)
	rc.samples["setup_s"] = setupRuns
}

// clientTails reports the p99 latencies the client saw in an untraced
// window of a traced run.
func (rc *runCtx) clientTails(w window) {
	for _, p := range []struct {
		name string
		put  bool
	}{{"kvclient.put_us_p99", true}, {"kvclient.get_us_p99", false}} {
		if us, n := w.latency(p.put, 0.99); n > 0 {
			rc.layer(p.name, us)
			rc.samples[p.name] = n
		}
	}
}

// pmemLayers reports the PM region's work per PUT between two snapshots.
func (rc *runCtx) pmemLayers(a, b pmem.Stats, puts float64, spun time.Duration) {
	rc.layer("pmem.lines_flushed_per_put", ratio(float64(b.LinesFlushed-a.LinesFlushed), puts))
	rc.layer("pmem.fences_per_put", ratio(float64(b.Fences-a.Fences), puts))
	rc.layer("pmem.bytes_written_per_put", ratio(float64(b.BytesWritten-a.BytesWritten), puts))
	rc.layer("pmem.modeled_ns_per_put", ratio(float64((b.Charged-a.Charged).Nanoseconds()), puts))
	rc.layer("latency.spun_us_per_put", ratio(spun.Seconds()*1e6, puts))
}

func (rc *runCtx) probe(lost, written int, how string) {
	r := ratio(float64(lost), float64(written))
	rc.probes = append(rc.probes, fmt.Sprintf("acked_lost_ratio %.4f (%d of %d keys written in the run; %s)", r, lost, written, how))
	if rc.trace {
		rc.layer("acked_lost_ratio", r)
		rc.samples["acked_lost_ratio"] = written
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func gcPause() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

var workloads = map[string]func(*runCtx) error{
	"sim_put": func(rc *runCtx) error {
		if rc.trace {
			return runSimTraced(rc)
		}
		return runSim(rc)
	},
	"daemon_put": func(rc *runCtx) error {
		sp := daemonSpec{keys: 16384, putPct: 100}
		if rc.trace {
			return runDaemonTraced(rc, sp)
		}
		return runDaemon(rc, sp)
	},
	"daemon_read": func(rc *runCtx) error {
		sp := daemonSpec{keys: 60000, putPct: 5, zipf: true, preload: true}
		if rc.trace {
			return runDaemonTraced(rc, sp)
		}
		return runDaemon(rc, sp)
	},
}

func main() {
	var (
		workload  = flag.String("workload", "", "sim_put, daemon_put or daemon_read")
		seed      = flag.Int64("seed", 1, "seed of the generated requests")
		seconds   = flag.Float64("seconds", 10, "length of the measured window")
		trace     = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		pktstored = flag.String("pktstored", ".bench_build/bin/pktstored", "pktstored binary (daemon workloads)")
		out       = flag.String("out", ".bench_build", "directory for images, logs, results and spans")
	)
	flag.Parse()
	rc, err := run(*workload, *seed, *seconds, *trace == 1, *pktstored, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", *workload, *seed, err)
		os.Exit(1)
	}
	attempted, failed, errs := rc.outcome()
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", *workload, *seed, e)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, rc.metrics})
	fmt.Println(string(line))
}

func run(workload string, seed int64, seconds float64, trace bool, pktstored, out string) (*runCtx, error) {
	fn, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	rc := &runCtx{
		workload: workload, seed: seed, trace: trace, pktstored: pktstored, out: out,
		window:  time.Duration(seconds * float64(time.Second)),
		profile: "off", metrics: map[string]metric{}, samples: map[string]int{}, tails: map[string]float64{},
	}
	rc.dir = filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(rc.dir)
	steal0 := stealTicks()
	if err := fn(rc); err != nil {
		return nil, err
	}
	rc.stealS = float64(stealTicks()-steal0) / 100
	units := endToEndUnits
	if trace {
		units = layerUnits
	}
	var notOnPath []string
	for name := range units {
		if _, ok := rc.metrics[name]; !ok {
			rc.set(units, name, 0)
			notOnPath = append(notOnPath, name)
		}
	}
	sort.Strings(notOnPath)
	for _, p := range rc.probes {
		fmt.Printf("%s: %s\n", workload, p)
	}
	fmt.Printf("%s: host steal time during the run %.2f s\n", workload, rc.stealS)
	return rc, rc.writeResult(notOnPath)
}

// outcome totals the checked answers of every connection.
func (rc *runCtx) outcome() (attempted, failed int, errs []string) {
	for _, c := range rc.clients {
		attempted += c.attempted
		failed += c.failed
		for _, e := range c.errs {
			errs = append(errs, fmt.Sprintf("conn %d: %s", c.id, e))
		}
	}
	return attempted, failed, errs
}

// writeResult records the run with its provenance under out/results.
func (rc *runCtx) writeResult(notOnPath []string) error {
	dir := filepath.Join(rc.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	attempted, failed, errs := rc.outcome()
	rev, src := revision()
	res := map[string]any{
		"workload": rc.workload,
		"trace":    rc.trace,
		"provenance": map[string]any{
			"git_revision":  rev,
			"source_sha256": src,
			"go_version":    runtime.Version(),
			"num_cpu":       runtime.NumCPU(),
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"calib_profile": rc.profile,
			"cpu_pinning":   map[bool]string{true: fmt.Sprintf("pktstored on CPU %d, generator on CPU %d", serverCPU, generatorCPU), false: "none"}[rc.pinned],
			"seed":          rc.seed,
			"seconds":       rc.window.Seconds(),
			"params":        params[rc.workload],
		},
		"metrics":     rc.metrics,
		"samples":     rc.samples,
		"slices":      rc.slices,
		"p99_us":      rc.tails,
		"not_on_path": notOnPath,
		"attempted":   attempted,
		"failed":      failed,
		"error_rate":  ratio(float64(failed), float64(attempted)),
		"errors":      errs,
		"durability":  rc.probes,
		// Other tenants of a virtual machine's host show up here: a run
		// with much steal time ran slower for reasons outside the program.
		"host_steal_s": rc.stealS,
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rc.workload, rc.seed, map[bool]int{false: 0, true: 1}[rc.trace])
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// params records each workload's shape in its results.
var params = map[string]map[string]any{
	"sim_put": {"deployment": "simulated testbed, kvserver event loop, PASTE rx into the PM pool, checksum reuse",
		"shards": 1, "conns": 1, "in_flight": 1, "keys": simKeys, "put_pct": 100, "dist": "uniform",
		"value_bytes": valueSize, "warmup_s": simWarm.Seconds(), "readback": "every key, 1 in flight",
		"traced_phase_puts_per_s": simTraceOps},
	"daemon_put": {"deployment": "pktstored default flags (1 shard, healer on), fresh image, loopback",
		"conns": daemonConns, "in_flight": daemonWindow, "keys": 16384, "put_pct": 100, "dist": "uniform",
		"value_bytes": valueSize, "warmup_s": daemonWarm.Seconds(), "readback": "every key, 2x8 in flight"},
	"daemon_read": {"deployment": "pktstored default flags (1 shard, healer on), preloaded image, loopback",
		"conns": daemonConns, "in_flight": daemonWindow, "keys": 60000, "put_pct": 5, "dist": "zipf s=1.1",
		"value_bytes": valueSize, "warmup_s": daemonWarm.Seconds()},
}

// stealTicks reads the host-wide steal time from /proc/stat, in clock
// ticks (1/100 s); 0 where the kernel does not report it.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// revision identifies the code measured: the VCS revision stamped at
// build time when built inside a git checkout, and in every case a
// digest of the Go sources and module files under the working directory.
func revision() (rev, src string) {
	rev = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && p != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			if b, err := os.ReadFile(p); err == nil {
				h.Write([]byte(p + "\x00" + strconv.Itoa(len(b)) + "\x00"))
				h.Write(b)
			}
		}
		return nil
	})
	return rev, hex.EncodeToString(h.Sum(nil))
}
