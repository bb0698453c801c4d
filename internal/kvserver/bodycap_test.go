package kvserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/host"
	"packetstore/internal/httpmsg"
	"packetstore/internal/kvclient"
	"packetstore/internal/pmem"
)

// checkBodyCap drives one transport at the body cap: a PUT of exactly
// httpmsg.MaxBody bytes is answered 200 (get, when non-nil, must then
// return it), and a PUT declaring one byte more is answered 413 before
// any body byte is sent, after which the server closes the connection.
func checkBodyCap(t *testing.T, dial func() (io.ReadWriteCloser, error), get func(key []byte) ([]byte, bool, error)) {
	t.Helper()
	c, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	cl := kvclient.New(c)
	val := bytes.Repeat([]byte("m"), httpmsg.MaxBody)
	if err := cl.Put([]byte("at-cap"), val); err != nil {
		t.Fatalf("PUT of MaxBody bytes: %v", err)
	}
	cl.Close()
	if get != nil {
		got, ok, err := get([]byte("at-cap"))
		if err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("value of MaxBody bytes: ok=%v len=%d err=%v", ok, len(got), err)
		}
	}

	c, err = dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hdr := fmt.Sprintf("PUT /k/past-cap HTTP/1.1\r\nContent-Length: %d\r\n\r\n", httpmsg.MaxBody+1)
	if _, err := c.Write([]byte(hdr)); err != nil {
		t.Fatal(err)
	}
	resp, err := readUntilClosed(c, 5*time.Second)
	if err != nil {
		t.Fatalf("%v (got %q)", err, resp)
	}
	if !bytes.HasPrefix(resp, []byte("HTTP/1.1 413 ")) {
		t.Fatalf("over-cap PUT answered %q, want 413", resp)
	}
}

// readUntilClosed reads until the peer closes the connection.
func readUntilClosed(c io.Reader, timeout time.Duration) ([]byte, error) {
	done := make(chan []byte, 1)
	go func() {
		var out []byte
		buf := make([]byte, 4096)
		for {
			n, err := c.Read(buf)
			out = append(out, buf[:n]...)
			if err != nil {
				done <- out
				return
			}
		}
	}()
	select {
	case out := <-done:
		return out, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("connection still open after %v", timeout)
	}
}

func TestBodyCapNetServer(t *testing.T) {
	// 8 KB data slots hold a value of MaxBody bytes in 128 extents.
	cfg := core.Config{MetaSlots: 256, DataSlots: 256, DataBufSize: 8192, VerifyOnGet: true}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	store, err := core.Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lst, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewNetServer(lst, PktStore{S: store})
	go srv.Serve()
	defer srv.Close()
	checkBodyCap(t, func() (io.ReadWriteCloser, error) { return net.Dial("tcp", lst.Addr().String()) }, store.Get)
}

// TestBodyCapEventLoopServer runs the same check on the simulated
// transport. The backend discards values: on the zero-copy path a value
// takes one extent per packet, so a store refuses one of MaxBody bytes
// (ErrValueTooLarge, also 413) before the transport's cap is reached.
func TestBodyCapEventLoopServer(t *testing.T) {
	e := newEnv(t, func(*host.Testbed) Backend { return Discard{} }, host.Options{})
	checkBodyCap(t, func() (io.ReadWriteCloser, error) { return e.tb.Dial(80) }, nil)
}

// TestValueTooLargeZeroCopy sends a value spread over more packets than
// a record slot counts extents on the zero-copy path: the store refuses
// it with 413 instead of acking a record it cannot read back, and the
// connection and store keep serving.
func TestValueTooLargeZeroCopy(t *testing.T) {
	e, _ := pktStoreEnv(t, core.Config{MetaSlots: 256, DataSlots: 2048})
	cl := e.dial(t)
	defer cl.Close()
	big := bytes.Repeat([]byte("z"), 512<<10)
	var se *kvclient.StatusError
	if err := cl.Put([]byte("too-big"), big); !errors.As(err, &se) || se.Status != 413 {
		t.Fatalf("PUT of %d bytes: %v, want status 413", len(big), err)
	}
	if _, ok, err := cl.Get([]byte("too-big")); ok || err != nil {
		t.Fatalf("refused value readable: ok=%v err=%v", ok, err)
	}
	if err := cl.Put([]byte("after"), []byte("fits")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get([]byte("after")); err != nil || !ok || string(v) != "fits" {
		t.Fatalf("GET after refusal: %q %v %v", v, ok, err)
	}
}
