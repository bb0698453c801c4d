package pmem

import (
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
)

// TestOpenFileAfterKilledWriter reopens an image while the first region
// is still open, as a restart after SIGKILL does: the dead process never
// called Sync or Close. Fenced lines must be there; flushed-but-unfenced
// and unflushed lines must not.
func TestOpenFileAfterKilledWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pm.img")
	r, err := OpenFile(path, 4096, off())
	if err != nil {
		t.Fatal(err)
	}
	r.Write(0, []byte("fenced"))
	r.Persist(0, 6)
	r.Write(128, []byte("flushed"))
	r.Flush(128, 7)
	r.Write(256, []byte("written"))

	r2, err := OpenFile(path, 4096, off())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := string(r2.Slice(0, 6)); got != "fenced" {
		t.Fatalf("fenced bytes: got %q", got)
	}
	if got := string(r2.Slice(128, 7)); got == "flushed" {
		t.Fatal("flushed-but-unfenced bytes reached the image")
	}
	if got := string(r2.Slice(256, 7)); got == "written" {
		t.Fatal("unflushed bytes reached the image")
	}
	// The first region's fence is what made the line durable: a later
	// fence on it lands in the same file.
	r.Fence()
	r3, err := OpenFile(path, 4096, off())
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if got := string(r3.Slice(128, 7)); got != "flushed" {
		t.Fatalf("fenced-later bytes: got %q", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFileAllocatesImage checks that a fresh image is the header plus
// the region, fully allocated on disk, and reads back as zeros.
func TestOpenFileAllocatesImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pm.img")
	const size = 1 << 20
	r, err := OpenFile(path, size, off())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(fileMagic) + size); st.Size() != want {
		t.Fatalf("image size %d, want %d", st.Size(), want)
	}
	if blocks := st.Sys().(*syscall.Stat_t).Blocks * 512; blocks < size {
		t.Fatalf("image has %d bytes allocated, want >= %d", blocks, size)
	}
	for i, b := range r.Slice(0, size) {
		if b != 0 {
			t.Fatalf("fresh image byte %d = %#x", i, b)
		}
	}
}

// TestClosedRegionPersistIsNoop drives every operation that touches the
// durable image after Close: with the image unmapped they must do
// nothing, as after a power cut, rather than fault.
func TestClosedRegionPersistIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pm.img")
	r, err := OpenFile(path, 4096, off())
	if err != nil {
		t.Fatal(err)
	}
	r.Write(0, []byte("kept"))
	r.Persist(0, 4)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r.Write(0, []byte("lost"))
	r.Persist(0, 4)
	var fs FlushSet
	fs.Add(0, 4)
	r.FlushBatch(&fs)
	r.Fence()
	r.XorDeltaBatch([]XorSpan{{Poff: 1024, Off: 0, N: LineSize}})
	if got := r.XorReconstruct(2048, []int{0, 1024}, LineSize); got != 1 {
		t.Fatalf("XorReconstruct on a closed region restored lines (skipped %d)", got)
	}
	r.CorruptByte(0, 0xff)
	r.EraseRange(0, LineSize)
	r.ReadShadow(make([]byte, 8), 0)
	r.Crash(1)
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}

	r2, err := OpenFile(path, 4096, off())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := string(r2.Slice(0, 4)); got != "kept" {
		t.Fatalf("image after close: got %q, want %q", got, "kept")
	}
}

// TestCloseRacesFence closes a file-backed region while writers keep
// persisting into it. Run under -race: Close must serialise with the
// persist operations, and those that lose the race must be no-ops.
func TestCloseRacesFence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pm.img")
	r, err := OpenFile(path, 1<<16, off())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 2000; i++ {
				o := g*4096 + (i%64)*LineSize
				r.WriteUint64(o, uint64(i))
				r.Flush(o, 8)
				r.Fence()
			}
		}(g)
	}
	close(start)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
