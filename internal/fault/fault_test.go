package fault

import (
	"fmt"
	"os"
	"testing"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/pmem"
)

func TestMain(m *testing.M) {
	if arg := os.Getenv(killChildEnv); arg != "" {
		os.Exit(serveKillChild(arg))
	}
	// Hundreds of torture runs each log their injected crash; keep the
	// test output readable. Failures carry the seed in their message.
	pmem.SetCrashLogger(func(int64) {})
	code := m.Run()
	pmem.SetCrashLogger(nil)
	os.Exit(code)
}

// TestCountPersistOps checks calibration: the count is nonzero for real
// work and exactly reproducible across identical runs.
func TestCountPersistOps(t *testing.T) {
	cfg := tortureCfg()
	run := func() int64 {
		r := pmem.New(cfg.RegionSize(), calib.Off())
		s, err := core.Open(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return CountPersistOps(r, func() {
			for i := 0; i < 10; i++ {
				if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("value")); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	a, b := run(), run()
	if a == 0 {
		t.Fatal("ten puts issued zero persist operations")
	}
	if a != b {
		t.Fatalf("persist count not deterministic: %d vs %d", a, b)
	}
}

// TestPlanCutsAtExactOp checks that the plan fires at precisely the
// chosen ordinal and that every later persist operation is dead.
func TestPlanCutsAtExactOp(t *testing.T) {
	r := pmem.New(4096, calib.Off())
	p := &Plan{Seed: 1, CutAt: 3}
	p.Install(r)
	for i := 0; i < 2; i++ {
		r.WriteUint64(0, uint64(i))
		r.Persist(0, 8) // Flush+Fence: two ops per loop
	}
	if !r.PowerFailed() {
		t.Fatal("power should have failed at op 3 (second loop's flush)")
	}
	if got := p.Ops(); got < 3 {
		t.Fatalf("plan observed %d ops, want >= 3", got)
	}
	// Post-cut writes must not become durable.
	r.WriteUint64(8, 0xdead)
	r.Persist(8, 8)
	r.Crash(1)
	if got := r.ReadUint64(8); got == 0xdead {
		t.Fatal("write after the power cut survived the crash")
	}
}

// TestPlanTearPersistsPrefix checks the torn write-back: a cut flush
// with TearBytes persists exactly that prefix of the first dirty line.
func TestPlanTearPersistsPrefix(t *testing.T) {
	r := pmem.New(4096, calib.Off())
	line := make([]byte, pmem.LineSize)
	for i := range line {
		line[i] = 0xAB
	}
	r.Write(0, line)
	p := &Plan{Seed: 2, CutAt: 1, TearBytes: 10}
	p.Install(r)
	r.Flush(0, pmem.LineSize)
	r.Fence()
	r.Crash(2)
	got := r.Slice(0, pmem.LineSize)
	for i := 0; i < 10; i++ {
		if got[i] != 0xAB {
			t.Fatalf("torn byte %d not persisted", i)
		}
	}
	for i := 10; i < pmem.LineSize; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d beyond the tear persisted", i)
		}
	}
}

// TestCrashSurvivalDeterministic checks that the same seed resolves the
// flushed-unfenced window identically across devices.
func TestCrashSurvivalDeterministic(t *testing.T) {
	image := func(seed int64) []byte {
		r := pmem.New(4096, calib.Off())
		for l := 0; l < 16; l++ {
			b := make([]byte, pmem.LineSize)
			for i := range b {
				b[i] = byte(l + 1)
			}
			r.Write(l*pmem.LineSize, b)
		}
		r.Flush(0, 16*pmem.LineSize) // dirty -> pending
		// No fence: every line sits in the 50/50 window.
		r.Crash(seed)
		return append([]byte(nil), r.Slice(0, 16*pmem.LineSize)...)
	}
	a, b := image(42), image(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("crash survival diverged at byte %d for the same seed", i)
		}
	}
}
