package fault

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/kvclient"
	"packetstore/internal/kvserver"
	"packetstore/internal/pmem"
)

// The kill test runs a real daemon in a child process: the test binary
// re-executes itself with killChildEnv set to "<image>:<shards>", and
// TestMain hands control to serveKillChild instead of the tests.
const killChildEnv = "PACKETSTORE_KILL_CHILD"

const (
	killKeys  = 64
	killConns = 2
)

// killCfg is a small daemon geometry: room for every key's live and
// replaced versions, with values that span several data slots.
var killCfg = core.Config{MetaSlots: 2048, DataSlots: 4096, VerifyOnGet: true}

func killRegionSize(shards int) int { return core.ShardedRegionSize(killCfg, shards) }

// serveKillChild is the child's main: it opens the image and serves it
// wired as cmd/pktstored does (pmem.OpenFile, core.OpenSharded,
// NetServer over ShardedPktStore, Healer), prints its listen address and
// serves until it is killed.
func serveKillChild(arg string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "kill child:", err)
		return 1
	}
	i := strings.LastIndexByte(arg, ':')
	shards, err := strconv.Atoi(arg[i+1:])
	if i < 0 || err != nil {
		return fail(fmt.Errorf("bad %s=%q", killChildEnv, arg))
	}
	r, err := pmem.OpenFile(arg[:i], killRegionSize(shards), calib.Off())
	if err != nil {
		return fail(err)
	}
	ss, err := core.OpenSharded(r, killCfg, shards)
	if err != nil {
		return fail(err)
	}
	lst, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	srv := kvserver.NewNetServer(lst, kvserver.ShardedPktStore{S: ss})
	healer := kvserver.NewHealer(ss, kvserver.HealConfig{ScrubInterval: 5 * time.Millisecond})
	go healer.Run()
	srv.SetHealthSource(healer.Health)
	fmt.Println(lst.Addr())
	if err := srv.Serve(); err != nil {
		return fail(err)
	}
	return 0
}

// killValue is version ver of key k: a header naming both, padded to a
// length drawn from (k, ver), so a value read back can be checked byte
// for byte against the version it claims to be.
func killValue(k int, ver uint64) []byte {
	n := 32 + int((uint64(k)*7919+ver*104729)%5000)
	v := []byte(fmt.Sprintf("key=%d ver=%d;", k, ver))
	for len(v) < n {
		v = append(v, byte('a'+(len(v)+k+int(ver))%26))
	}
	return v
}

func killKey(k int) []byte { return []byte(fmt.Sprintf("kill-%03d", k)) }

// killModel tracks, per key, the last version sent and the last version
// acknowledged. Each key is written by one connection only, so its
// versions reach the server in order.
type killModel struct {
	mu    sync.Mutex
	sent  [killKeys]uint64
	acked [killKeys]uint64
	acks  int
}

// startKillChild launches the daemon on img and returns it with the
// address it serves.
func startKillChild(t *testing.T, img string, shards int) (*exec.Cmd, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s:%d", killChildEnv, img, shards))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("daemon did not report its address: %v", err)
	}
	return cmd, line[:len(line)-1]
}

// killRound drives PUTs from killConns connections until killAt of them
// have been acknowledged, then SIGKILLs the daemon mid-stream, while the
// other connection may still have a PUT in flight.
func killRound(t *testing.T, rng *rand.Rand, m *killModel, img string, shards, killAt int) {
	t.Helper()
	cmd, addr := startKillChild(t, img, shards)
	var once sync.Once
	kill := func() { once.Do(func() { cmd.Process.Signal(syscall.SIGKILL) }) }
	var wg sync.WaitGroup
	for c := 0; c < killConns; c++ {
		seed := rng.Int63()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				kill()
				return
			}
			cl := kvclient.New(conn)
			defer cl.Close()
			crng := rand.New(rand.NewSource(seed))
			for {
				k := crng.Intn(killKeys/killConns)*killConns + c
				m.mu.Lock()
				m.sent[k]++
				ver := m.sent[k]
				m.mu.Unlock()
				if err := cl.Put(killKey(k), killValue(k, ver)); err != nil {
					kill()
					return
				}
				m.mu.Lock()
				m.acked[k] = ver
				m.acks++
				done := m.acks >= killAt
				m.mu.Unlock()
				if done {
					kill()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := cmd.Wait(); err == nil {
		t.Fatal("daemon exited cleanly; it should have been killed")
	}
}

// checkKilledImage reopens the dead daemon's image the way a restart
// does and checks every key against the model: an acked key holds a
// version no older than its last ack, and no key holds a version newer
// than the last one sent.
func checkKilledImage(t *testing.T, m *killModel, img string, shards int) {
	t.Helper()
	r, err := pmem.OpenFile(img, killRegionSize(shards), calib.Off())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ss, err := core.OpenSharded(r, killCfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < killKeys; k++ {
		val, ok, err := ss.Get(killKey(k))
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		acked, sent := m.acked[k], m.sent[k]
		if !ok {
			if acked > 0 {
				t.Fatalf("key %d: acked version %d lost", k, acked)
			}
			continue
		}
		var gk int
		var ver uint64
		if _, err := fmt.Sscanf(string(val), "key=%d ver=%d;", &gk, &ver); err != nil || gk != k {
			t.Fatalf("key %d: unrecognised value %.40q", k, val)
		}
		switch {
		case !bytes.Equal(val, killValue(k, ver)):
			t.Fatalf("key %d: version %d has wrong bytes", k, ver)
		case ver < acked:
			t.Fatalf("key %d: holds version %d, older than acked %d", k, ver, acked)
		case ver > sent:
			t.Fatalf("key %d: holds version %d, never sent (last sent %d)", k, ver, sent)
		}
	}
}

// TestKillDaemon is the process-level torture mode: a daemon wired as
// pktstored serves PUTs until SIGKILL at a seeded point; the image must
// then hold every acknowledged write and nothing that was never sent.
// Each seed kills the daemon twice, the second time after it recovered
// the first crash's image.
func TestKillDaemon(t *testing.T) {
	n := seeds(t, 4, 16)
	for i := 0; i < n; i++ {
		seed := tortureBase + int64(i)
		rng := rand.New(rand.NewSource(seed))
		shards := 1 + i%2
		img := filepath.Join(t.TempDir(), "store.img")
		m := &killModel{}
		for round := 0; round < 2; round++ {
			killAt := m.acks + 20 + rng.Intn(300)
			ok := t.Run(fmt.Sprintf("seed=%d/round=%d", seed, round), func(t *testing.T) {
				killRound(t, rng, m, img, shards, killAt)
				checkKilledImage(t, m, img, shards)
			})
			if !ok {
				return
			}
		}
	}
}
