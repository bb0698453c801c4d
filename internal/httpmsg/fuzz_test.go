package httpmsg

import (
	"fmt"
	"testing"
)

// FuzzRequestParser feeds arbitrary bytes to a RequestParser in chunks
// whose lengths come from sizes (each byte plus one, cycled; empty sizes
// feeds the rest whole), resetting after every completed request as a
// server does on a pipelined connection. The parser must never panic or
// stall, must report only ranges inside the chunk it was given, and must
// never let a request's body grow past MaxBody.
func FuzzRequestParser(f *testing.F) {
	f.Add([]byte("PUT /k/a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"), []byte{3, 0, 7})
	f.Add([]byte("GET /k/a HTTP/1.1\r\n\r\nGET /range?start=a&limit=2 HTTP/1.1\r\nX-Budget-Us: 500\r\n\r\n"), []byte{})
	f.Add([]byte(fmt.Sprintf("PUT /k/big HTTP/1.1\r\nContent-Length: %d\r\n\r\nxx", MaxBody)), []byte{255})
	f.Add([]byte(fmt.Sprintf("PUT /k/big HTTP/1.1\r\nContent-Length: %d\r\n\r\n", MaxBody+1)), []byte{1})
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		p := NewRequestParser(1 << 10)
		body, si := 0, 0
		for len(data) > 0 {
			n := len(data)
			if len(sizes) > 0 {
				n = min(n, int(sizes[si%len(sizes)])+1)
				si++
			}
			chunk := data[:n]
			res := p.Feed(chunk)
			if res.Consumed < 0 || res.Consumed > len(chunk) {
				t.Fatalf("consumed %d of a %d-byte chunk", res.Consumed, len(chunk))
			}
			if res.Err != nil {
				return
			}
			if res.Consumed == 0 && !res.Done {
				t.Fatalf("no progress on a %d-byte chunk", len(chunk))
			}
			if b := res.Body; b.Len > 0 && (b.Off < 0 || b.Off+b.Len > res.Consumed) {
				t.Fatalf("body [%d,%d) outside the %d consumed bytes", b.Off, b.Off+b.Len, res.Consumed)
			}
			body += res.Body.Len
			req := p.Request()
			if body > MaxBody || req.ContentLength > MaxBody {
				t.Fatalf("body %d bytes (content-length %d) past the %d-byte cap", body, req.ContentLength, MaxBody)
			}
			if res.Done {
				if body != req.ContentLength || !req.BodyComplete {
					t.Fatalf("done with %d of %d body bytes", body, req.ContentLength)
				}
				p.Reset()
				body = 0
			}
			data = data[res.Consumed:]
		}
	})
}
