package main

import (
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSimModelledCountsRepeat is the determinism check: for a fixed
// seed, the modelled per-PUT costs of sim_put's traced run repeat
// exactly, so a change in them is a change in the program.
func TestSimModelledCountsRepeat(t *testing.T) {
	names := []string{"pmem.lines_flushed_per_put", "pmem.fences_per_put",
		"pmem.modeled_ns_per_put", "kvserver.zero_copy_ratio", "kvserver.derived_sum_ratio"}
	var first map[string]metric
	for i := 0; i < 2; i++ {
		rc, err := run("sim_put", 7, 0.5, true, "", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, rc, layerUnits)
		if first == nil {
			first = rc.metrics
			continue
		}
		for _, n := range names {
			if rc.metrics[n] != first[n] {
				t.Errorf("%s: %v then %v", n, first[n].Value, rc.metrics[n].Value)
			}
		}
	}
	for _, n := range names[3:] {
		if first[n].Value != 1 {
			t.Errorf("%s = %v, want 1 (zero-copy ingest and checksum reuse on every PUT)", n, first[n].Value)
		}
	}
}

// TestSmoke runs every workload briefly, end to end and traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts pktstored")
	}
	bin := filepath.Join(t.TempDir(), "pktstored")
	if out, err := exec.Command("go", "build", "-o", bin, "packetstore/cmd/pktstored").CombinedOutput(); err != nil {
		t.Fatalf("build pktstored: %v\n%s", err, out)
	}
	for _, w := range []string{"sim_put", "daemon_put", "daemon_read"} {
		for _, trace := range []bool{false, true} {
			rc, err := run(w, 3, 0.3, trace, bin, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			units := endToEndUnits
			if trace {
				units = layerUnits
			}
			checkRun(t, rc, units)
			if !trace && rc.metrics["throughput_ops"].Value <= 0 {
				t.Errorf("%s: no throughput", w)
			}
			if trace && w != "sim_put" && rc.metrics["acked_lost_ratio"].Value <= 0 {
				// pktstored persists its image only on a clean shutdown;
				// when that changes, this expectation goes with it.
				t.Logf("%s: acked_lost_ratio %v", w, rc.metrics["acked_lost_ratio"].Value)
			}
		}
	}
}

func checkRun(t *testing.T, rc *runCtx, units map[string]string) {
	t.Helper()
	if len(rc.metrics) != len(units) {
		t.Errorf("%s: %d metrics, want %d", rc.workload, len(rc.metrics), len(units))
	}
	for n, u := range units {
		if m, ok := rc.metrics[n]; !ok || m.Unit != u {
			t.Errorf("%s: metric %s = %+v, want unit %s", rc.workload, n, m, u)
		}
	}
	for _, c := range rc.clients {
		if c.failed != 0 || c.attempted == 0 {
			t.Errorf("%s: conn %d: %d of %d answers wrong: %v", rc.workload, c.id, c.failed, c.attempted, c.errs)
		}
	}
}

// TestKeptSlices: slices the hypervisor stole time in, or in the slice
// before, are left out of the medians; when fewer than a quarter are
// clean, the quarter stolen from least is kept.
func TestKeptSlices(t *testing.T) {
	w := window{slice: sliceLen}
	for i := 0; i < 8; i++ {
		w.slices = append(w.slices, slice{done: i})
	}
	// Per slice: 0 0 1 0 0 0 3 0 -> slices 2, 3, 6 and 7 are spoilt.
	w.steal = []int64{0, 0, 0, 1, 1, 1, 1, 4, 4}
	if got := kept(w); got != "0 1 4 5" {
		t.Errorf("kept slices %q, want \"0 1 4 5\"", got)
	}
	// Per slice: 5 2 2 4 9 9 9 9 -> spoilt by 5 7 4 6 13 18 18 18.
	w.steal = []int64{0, 5, 7, 9, 13, 22, 31, 40, 49}
	if got := kept(w); got != "0 2" {
		t.Errorf("kept slices %q, want the least stolen quarter \"0 2\"", got)
	}
}

func kept(w window) string {
	var s []string
	for _, k := range w.kept() {
		s = append(s, strconv.Itoa(k.done))
	}
	return strings.Join(s, " ")
}
