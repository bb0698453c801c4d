package httpmsg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func feedAll(t *testing.T, p *RequestParser, input []byte, chunkSizes []int) ([]byte, Request) {
	t.Helper()
	var body []byte
	rest := input
	idx := 0
	for len(rest) > 0 {
		n := len(rest)
		if idx < len(chunkSizes) && chunkSizes[idx] < n {
			n = chunkSizes[idx]
		}
		idx++
		chunk := rest[:n]
		res := p.Feed(chunk)
		if res.Err != nil {
			t.Fatalf("Feed error: %v", res.Err)
		}
		body = append(body, chunk[res.Body.Off:res.Body.Off+res.Body.Len]...)
		rest = rest[res.Consumed:]
		if res.Done {
			if len(rest) != 0 {
				t.Fatalf("unconsumed bytes after Done: %q", rest)
			}
			return body, p.Request()
		}
	}
	t.Fatal("input exhausted before Done")
	return nil, Request{}
}

func TestParsePutRequest(t *testing.T) {
	raw := []byte("PUT /k/mykey HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
	p := NewRequestParser(0)
	body, req := feedAll(t, p, raw, nil)
	if req.Method != "PUT" || req.Path != "/k/mykey" || req.ContentLength != 5 {
		t.Fatalf("req %+v", req)
	}
	if string(body) != "hello" || !req.BodyComplete {
		t.Fatalf("body %q", body)
	}
}

func TestParseGetNoBody(t *testing.T) {
	raw := []byte("GET /k/x HTTP/1.1\r\n\r\n")
	p := NewRequestParser(0)
	body, req := feedAll(t, p, raw, nil)
	if req.Method != "GET" || len(body) != 0 {
		t.Fatalf("req %+v body %q", req, body)
	}
}

func TestParseArbitraryChunking(t *testing.T) {
	raw := []byte("PUT /k/abc HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
	payload := make([]byte, 100)
	rand.New(rand.NewSource(1)).Read(payload)
	for i := range payload {
		payload[i] = 'a' + payload[i]%26
	}
	raw = append(raw, payload...)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		var sizes []int
		for s := 0; s < len(raw); {
			n := 1 + rng.Intn(20)
			sizes = append(sizes, n)
			s += n
		}
		p := NewRequestParser(0)
		body, req := feedAll(t, p, raw, sizes)
		if string(body) != string(payload) || req.ContentLength != 100 {
			t.Fatalf("trial %d: body mismatch", trial)
		}
	}
}

func TestPipelinedRequests(t *testing.T) {
	raw := []byte("PUT /k/a HTTP/1.1\r\nContent-Length: 3\r\n\r\nAAAGET /k/b HTTP/1.1\r\n\r\n")
	p := NewRequestParser(0)
	res := p.Feed(raw)
	if !res.Done || res.Err != nil {
		t.Fatalf("first request not done: %+v", res)
	}
	if p.Request().Method != "PUT" || string(raw[res.Body.Off:res.Body.Off+res.Body.Len]) != "AAA" {
		t.Fatal("first request wrong")
	}
	p.Reset()
	res2 := p.Feed(raw[res.Consumed:])
	if !res2.Done || p.Request().Method != "GET" || p.Request().Path != "/k/b" {
		t.Fatalf("second request wrong: %+v %+v", res2, p.Request())
	}
}

func TestMalformedRequests(t *testing.T) {
	cases := []string{
		"BROKEN\r\n\r\n",
		"GET /x SPDY/9\r\n\r\n",
		"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
		"PUT /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
		"PUT /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
		fmt.Sprintf("PUT /x HTTP/1.1\r\nContent-Length: %d\r\n\r\n", MaxBody+1),
	}
	for _, c := range cases {
		p := NewRequestParser(0)
		res := p.Feed([]byte(c))
		if res.Err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestHeaderTooLarge(t *testing.T) {
	p := NewRequestParser(64)
	res := p.Feed([]byte("GET /aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa HTTP/1.1\r\n\r\n"))
	if res.Err == nil {
		t.Fatal("oversized header accepted")
	}
}

func TestAppendRequest(t *testing.T) {
	got := string(AppendRequest(nil, "PUT", "/k/x", 10))
	want := "PUT /k/x HTTP/1.1\r\nContent-Length: 10\r\n\r\n"
	if got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	got = string(AppendRequest(nil, "GET", "/k/x", 0))
	if got != "GET /k/x HTTP/1.1\r\n\r\n" {
		t.Fatalf("got %q", got)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, c := range []struct {
		status  int
		bodyLen int
	}{{200, 0}, {200, 1024}, {404, 0}, {500, 3}, {507, 0}, {201, 0}, {204, 0}, {400, 0}, {999, 0}} {
		raw := AppendResponse(nil, c.status, c.bodyLen)
		body := make([]byte, c.bodyLen)
		for i := range body {
			body[i] = byte(i)
		}
		raw = append(raw, body...)
		p := NewResponseParser()
		var got []byte
		rest := raw
		for {
			res := p.Feed(rest)
			if res.Err != nil {
				t.Fatalf("status %d: %v", c.status, res.Err)
			}
			got = append(got, rest[res.Body.Off:res.Body.Off+res.Body.Len]...)
			rest = rest[res.Consumed:]
			if res.Done {
				break
			}
		}
		if p.Response().Status != c.status || len(got) != c.bodyLen {
			t.Fatalf("status %d: parsed %+v body %d", c.status, p.Response(), len(got))
		}
		p.Reset()
	}
}

func TestResponseParserMalformed(t *testing.T) {
	for _, c := range []string{
		"FTP/1.1 200 OK\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBadHeader\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
	} {
		p := NewResponseParser()
		if res := p.Feed([]byte(c)); res.Err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestQuickParserNeverPanicsAndConsumes(t *testing.T) {
	f := func(junk []byte) bool {
		p := NewRequestParser(1 << 10)
		rest := junk
		for len(rest) > 0 {
			res := p.Feed(rest)
			if res.Err != nil {
				return true // rejection is fine
			}
			if res.Consumed == 0 && !res.Done {
				return false // no progress would spin the server
			}
			rest = rest[res.Consumed:]
			if res.Done {
				p.Reset()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusText(t *testing.T) {
	if StatusText(200) != "OK" || StatusText(404) != "Not Found" || StatusText(123) != "Unknown" {
		t.Fatal("status text")
	}
}

func BenchmarkParsePut1K(b *testing.B) {
	raw := []byte(fmt.Sprintf("PUT /k/benchkey HTTP/1.1\r\nContent-Length: %d\r\n\r\n", 1024))
	raw = append(raw, make([]byte, 1024)...)
	p := NewRequestParser(0)
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		res := p.Feed(raw)
		if !res.Done {
			b.Fatal("not done")
		}
		p.Reset()
	}
}
