// Package httpmsg implements the minimal HTTP/1.1 subset the paper's
// workload uses: persistent connections carrying storage requests (the
// testbed drives NoveLSM with wrk over HTTP/TCP).
//
// The parser is incremental and zero-copy-friendly: it consumes input in
// arbitrary chunks (as TCP delivers packet buffers) and reports the byte
// ranges of the body rather than accumulating it, so a PM-backed receive
// path can record where body bytes already live instead of copying them.
package httpmsg

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// MaxBody caps a request's Content-Length. Servers buffer or stage a
// body before executing its request, so a larger declared length is
// refused with ErrBodyTooLarge when the header block completes, before
// any body byte is accepted.
const MaxBody = 1 << 20

// ErrBodyTooLarge is the protocol error for a Content-Length above
// MaxBody.
var ErrBodyTooLarge = errors.New("httpmsg: request body too large")

// ErrorStatus is the status a server answers a fatal parse error with
// before it closes the connection: 413 for ErrBodyTooLarge, else 400.
func ErrorStatus(err error) int {
	if errors.Is(err, ErrBodyTooLarge) {
		return 413
	}
	return 400
}

// Request is a parsed HTTP request line plus the headers the KV protocol
// uses.
type Request struct {
	Method        string
	Path          string
	ContentLength int
	// BudgetUs is the client's remaining latency budget in microseconds
	// (X-Budget-Us header), or 0 when the client did not send one. The
	// header is optional, so old clients interoperate unchanged.
	BudgetUs int64
	// BodyComplete is set once the whole body has been consumed.
	BodyComplete bool
}

// parserState enumerates the incremental parser's positions.
type parserState int

const (
	stateLine parserState = iota
	stateHeaders
	stateBody
	stateDone
)

// RequestParser incrementally parses a stream of pipelined requests.
type RequestParser struct {
	st        parserState
	line      []byte // accumulated header bytes (request line + headers)
	req       Request
	bodyLeft  int
	maxHeader int
}

// NewRequestParser returns a parser; maxHeader bounds accumulated header
// bytes per request (default 8KB).
func NewRequestParser(maxHeader int) *RequestParser {
	if maxHeader <= 0 {
		maxHeader = 8 << 10
	}
	return &RequestParser{maxHeader: maxHeader}
}

// BodyChunk describes a byte range of the input chunk that belongs to the
// current request's body.
type BodyChunk struct {
	Off, Len int
}

// Result reports the outcome of feeding one chunk.
type Result struct {
	// Consumed is how many bytes of the chunk were used; the remainder
	// belongs to the next request and must be re-fed.
	Consumed int
	// HeaderDone is set when the request line and headers completed
	// within this chunk.
	HeaderDone bool
	// Body is the byte range of this chunk holding body bytes.
	Body BodyChunk
	// Done is set when the request (headers + body) is complete.
	Done bool
	// Err is a fatal protocol error; the connection must be closed.
	Err error
}

// Request returns the request being (or just finished being) parsed.
func (p *RequestParser) Request() Request { return p.req }

// Feed consumes input bytes. Call repeatedly with successive chunks; after
// a Result with Done, call Reset before feeding the next request's bytes
// (any unconsumed suffix of the chunk belongs to that next request).
func (p *RequestParser) Feed(chunk []byte) Result {
	var res Result
	i := 0
	for i < len(chunk) {
		switch p.st {
		case stateDone:
			res.Consumed = i
			res.Done = true
			return res
		case stateLine, stateHeaders:
			// Accumulate until the blank line ends the header block.
			p.line = append(p.line, chunk[i])
			i++
			if len(p.line) > p.maxHeader {
				res.Err = fmt.Errorf("httpmsg: header block exceeds %d bytes", p.maxHeader)
				res.Consumed = i
				return res
			}
			if n := len(p.line); n >= 4 && string(p.line[n-4:]) == "\r\n\r\n" {
				if err := p.parseHeaderBlock(); err != nil {
					res.Err = err
					res.Consumed = i
					return res
				}
				res.HeaderDone = true
				p.bodyLeft = p.req.ContentLength
				if p.bodyLeft == 0 {
					p.req.BodyComplete = true
					p.st = stateDone
					res.Consumed = i
					res.Done = true
					return res
				}
				p.st = stateBody
			}
		case stateBody:
			n := len(chunk) - i
			if n > p.bodyLeft {
				n = p.bodyLeft
			}
			if res.Body.Len == 0 {
				res.Body.Off = i
			}
			res.Body.Len += n
			p.bodyLeft -= n
			i += n
			if p.bodyLeft == 0 {
				p.req.BodyComplete = true
				p.st = stateDone
				res.Consumed = i
				res.Done = true
				return res
			}
		}
	}
	res.Consumed = i
	return res
}

// Reset prepares the parser for the next pipelined request.
func (p *RequestParser) Reset() {
	p.st = stateLine
	p.line = p.line[:0]
	p.req = Request{}
	p.bodyLeft = 0
}

func (p *RequestParser) parseHeaderBlock() error {
	text := string(p.line)
	lines := strings.Split(text, "\r\n")
	if len(lines) < 1 {
		return fmt.Errorf("httpmsg: empty header block")
	}
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return fmt.Errorf("httpmsg: malformed request line %q", lines[0])
	}
	p.req.Method = parts[0]
	p.req.Path = parts[1]
	for _, ln := range lines[1:] {
		if ln == "" {
			continue
		}
		colon := strings.IndexByte(ln, ':')
		if colon < 0 {
			return fmt.Errorf("httpmsg: malformed header %q", ln)
		}
		name := strings.ToLower(strings.TrimSpace(ln[:colon]))
		val := strings.TrimSpace(ln[colon+1:])
		switch name {
		case "content-length":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("httpmsg: bad content-length %q", val)
			}
			if n > MaxBody {
				return fmt.Errorf("%w: content-length %d exceeds %d", ErrBodyTooLarge, n, MaxBody)
			}
			p.req.ContentLength = n
		case "x-budget-us":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("httpmsg: bad x-budget-us %q", val)
			}
			p.req.BudgetUs = n
		}
	}
	return nil
}

// AppendRequest serializes a request with a body of bodyLen bytes into
// dst, returning the extended slice. The body itself is appended by the
// caller (possibly as packet fragments).
func AppendRequest(dst []byte, method, path string, bodyLen int) []byte {
	return AppendRequestBudget(dst, method, path, bodyLen, 0)
}

// AppendRequestBudget is AppendRequest plus an X-Budget-Us header when
// budgetUs > 0: the client's remaining latency budget, letting the server
// drop the request instead of executing it once the budget has lapsed.
func AppendRequestBudget(dst []byte, method, path string, bodyLen int, budgetUs int64) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\n"...)
	if bodyLen > 0 || method == "PUT" || method == "POST" {
		dst = append(dst, "Content-Length: "...)
		dst = strconv.AppendInt(dst, int64(bodyLen), 10)
		dst = append(dst, '\r', '\n')
	}
	if budgetUs > 0 {
		dst = append(dst, "X-Budget-Us: "...)
		dst = strconv.AppendInt(dst, budgetUs, 10)
		dst = append(dst, '\r', '\n')
	}
	return append(dst, '\r', '\n')
}

// Response is a parsed response status line plus content length.
type Response struct {
	Status        int
	ContentLength int
	// RetryAfterMs is the server's backoff hint in milliseconds
	// (Retry-After-Ms header on 503 sheds), or 0 when absent.
	RetryAfterMs int64
}

// ResponseParser incrementally parses responses on a client connection.
type ResponseParser struct {
	st       parserState
	line     []byte
	resp     Response
	bodyLeft int
}

// NewResponseParser returns a response parser.
func NewResponseParser() *ResponseParser { return &ResponseParser{} }

// Response returns the response being (or just finished being) parsed.
func (p *ResponseParser) Response() Response { return p.resp }

// Feed consumes input; semantics mirror RequestParser.Feed.
func (p *ResponseParser) Feed(chunk []byte) Result {
	var res Result
	i := 0
	for i < len(chunk) {
		switch p.st {
		case stateDone:
			res.Consumed = i
			res.Done = true
			return res
		case stateLine, stateHeaders:
			p.line = append(p.line, chunk[i])
			i++
			if len(p.line) > 8<<10 {
				res.Err = fmt.Errorf("httpmsg: response header block too large")
				res.Consumed = i
				return res
			}
			if n := len(p.line); n >= 4 && string(p.line[n-4:]) == "\r\n\r\n" {
				if err := p.parseStatusBlock(); err != nil {
					res.Err = err
					res.Consumed = i
					return res
				}
				res.HeaderDone = true
				p.bodyLeft = p.resp.ContentLength
				if p.bodyLeft == 0 {
					p.st = stateDone
					res.Consumed = i
					res.Done = true
					return res
				}
				p.st = stateBody
			}
		case stateBody:
			n := len(chunk) - i
			if n > p.bodyLeft {
				n = p.bodyLeft
			}
			if res.Body.Len == 0 {
				res.Body.Off = i
			}
			res.Body.Len += n
			p.bodyLeft -= n
			i += n
			if p.bodyLeft == 0 {
				p.st = stateDone
				res.Consumed = i
				res.Done = true
				return res
			}
		}
	}
	res.Consumed = i
	return res
}

// Reset prepares for the next response.
func (p *ResponseParser) Reset() {
	p.st = stateLine
	p.line = p.line[:0]
	p.resp = Response{}
	p.bodyLeft = 0
}

func (p *ResponseParser) parseStatusBlock() error {
	lines := strings.Split(string(p.line), "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return fmt.Errorf("httpmsg: malformed status line %q", lines[0])
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("httpmsg: bad status code %q", parts[1])
	}
	p.resp.Status = code
	for _, ln := range lines[1:] {
		if ln == "" {
			continue
		}
		colon := strings.IndexByte(ln, ':')
		if colon < 0 {
			return fmt.Errorf("httpmsg: malformed header %q", ln)
		}
		name := strings.TrimSpace(ln[:colon])
		val := strings.TrimSpace(ln[colon+1:])
		switch {
		case strings.EqualFold(name, "content-length"):
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("httpmsg: bad content-length")
			}
			p.resp.ContentLength = n
		case strings.EqualFold(name, "retry-after-ms"):
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("httpmsg: bad retry-after-ms")
			}
			p.resp.RetryAfterMs = n
		}
	}
	return nil
}

// StatusText returns the reason phrase for the status codes the server
// emits.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 201:
		return "Created"
	case 204:
		return "No Content"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 413:
		return "Payload Too Large"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	case 507:
		return "Insufficient Storage"
	}
	return "Unknown"
}

// AppendResponse serializes a response header block with a body of bodyLen
// bytes into dst.
func AppendResponse(dst []byte, status, bodyLen int) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, ' ')
	dst = append(dst, StatusText(status)...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(bodyLen), 10)
	dst = append(dst, "\r\n\r\n"...)
	return dst
}

// AppendResponseRetryAfter serializes a response header block carrying a
// Retry-After-Ms backoff hint (milliseconds). Used on overload sheds so
// retrying clients can pace themselves off the server's own estimate
// instead of a blind exponential schedule.
func AppendResponseRetryAfter(dst []byte, status, bodyLen int, retryAfterMs int64) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, ' ')
	dst = append(dst, StatusText(status)...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(bodyLen), 10)
	if retryAfterMs > 0 {
		dst = append(dst, "\r\nRetry-After-Ms: "...)
		dst = strconv.AppendInt(dst, retryAfterMs, 10)
	}
	dst = append(dst, "\r\n\r\n"...)
	return dst
}
