package kvserver

import (
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"packetstore/internal/httpmsg"
	"packetstore/internal/kvproto"
)

// NetServer serves the KV protocol over operating-system TCP sockets —
// the deployment path for running the store on a real network (the
// simulated stack's zero-copy mechanisms do not apply; requests take the
// copy path). One goroutine per connection.
type NetServer struct {
	backend Backend
	lst     net.Listener
	cfg     Config
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	health  func() HealthReport
	wg      sync.WaitGroup

	sheds      atomic.Uint64
	idleClosed atomic.Uint64
	expired    atomic.Uint64
}

// NewNetServer wraps an OS listener.
func NewNetServer(lst net.Listener, backend Backend) *NetServer {
	return NewNetServerWithConfig(lst, backend, Config{})
}

// NewNetServerWithConfig wraps an OS listener with overload tuning:
// Config.MaxConns sheds connections beyond the cap with a 503, and
// Config.IdleTimeout bounds every read so a stalled client cannot hold a
// serving goroutine forever.
func NewNetServerWithConfig(lst net.Listener, backend Backend, cfg Config) *NetServer {
	cfg.fill()
	return &NetServer{backend: backend, lst: lst, cfg: cfg, conns: make(map[net.Conn]struct{})}
}

// Sheds counts connections rejected at the MaxConns cap; IdleClosed
// counts connections closed by the read deadline; Expired counts
// requests dropped unexecuted because their client budget lapsed
// (Config.Overload.Enabled).
func (s *NetServer) Sheds() uint64      { return s.sheds.Load() }
func (s *NetServer) IdleClosed() uint64 { return s.idleClosed.Load() }
func (s *NetServer) Expired() uint64    { return s.expired.Load() }

// SetHealthSource installs the GET /healthz report producer — normally
// (*Healer).Health. Without one, /healthz reports ready unconditionally.
func (s *NetServer) SetHealthSource(fn func() HealthReport) {
	s.mu.Lock()
	s.health = fn
	s.mu.Unlock()
}

// Serve accepts and services connections until Close.
func (s *NetServer) Serve() error {
	for {
		c, err := s.lst.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.mu.Lock()
		full := s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns
		if !full {
			s.conns[c] = struct{}{}
		}
		s.mu.Unlock()
		if full {
			s.sheds.Add(1)
			c.Write(httpmsg.AppendResponseRetryAfter(nil, 503, 0, s.cfg.Overload.RetryAfter.Milliseconds()))
			c.Close()
			continue
		}
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// Close stops accepting and closes live connections.
func (s *NetServer) Close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.lst.Close()
	s.wg.Wait()
}

func (s *NetServer) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()

	parser := httpmsg.NewRequestParser(0)
	rbuf := make([]byte, 64<<10)
	var body, resp []byte
	var cur kvproto.Request
	var curErr error
	var curHealth bool
	var deadline time.Time

	for {
		if s.cfg.IdleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		n, err := c.Read(rbuf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.idleClosed.Add(1)
			}
			return
		}
		// Arrival stamp for the whole chunk: pipelined requests deeper in
		// the buffer age against it while earlier ones execute, so a
		// backlog on this connection shows up as lapsed budgets.
		chunkAt := time.Now()
		chunk := rbuf[:n]
		resp = resp[:0]
		for len(chunk) > 0 {
			res := parser.Feed(chunk)
			if res.Err != nil {
				resp = httpmsg.AppendResponse(resp, httpmsg.ErrorStatus(res.Err), 0)
				c.Write(resp)
				return
			}
			if res.HeaderDone {
				hreq := parser.Request()
				curHealth = hreq.Method == "GET" && hreq.Path == "/healthz"
				if !curHealth {
					cur, curErr = kvproto.Parse(hreq.Method, hreq.Path)
				}
				deadline = time.Time{}
				if s.cfg.Overload.Enabled && hreq.BudgetUs > 0 {
					deadline = chunkAt.Add(time.Duration(hreq.BudgetUs) * time.Microsecond)
				}
				body = body[:0]
			}
			body = append(body, chunk[res.Body.Off:res.Body.Off+res.Body.Len]...)
			chunk = chunk[res.Consumed:]
			if res.Done {
				switch {
				case curHealth:
					resp = s.appendHealth(resp)
				case !deadline.IsZero() && time.Now().After(deadline) && curErr == nil:
					// Doomed-work elimination: the client's budget lapsed
					// before execution; answer 503 instead of executing.
					s.expired.Add(1)
					resp = httpmsg.AppendResponseRetryAfter(resp, 503, 0, s.cfg.Overload.RetryAfter.Milliseconds())
				default:
					resp = s.respond(resp, cur, curErr, body)
				}
				parser.Reset()
			}
		}
		if len(resp) > 0 {
			if _, err := c.Write(resp); err != nil {
				return
			}
		}
	}
}

// appendHealth serves GET /healthz: the JSON HealthReport, 200 when
// every shard serves and 503 while any is down or rebuilding — the body
// is present either way so a poller can see per-shard progress. The
// accept layer's own overload counters (connections shed at the
// MaxConns cap, idle closes, expired-budget drops) are merged into the
// report's overload section, so they are visible to operators even
// without a healer wired.
func (s *NetServer) appendHealth(resp []byte) []byte {
	s.mu.Lock()
	fn := s.health
	s.mu.Unlock()
	rep := HealthReport{Ready: true}
	if fn != nil {
		rep = fn()
	}
	if rep.Overload == nil {
		rep.Overload = &OverloadHealth{}
	}
	rep.Overload.Sheds += s.sheds.Load()
	rep.Overload.IdleClosed += s.idleClosed.Load()
	rep.Overload.Expired += s.expired.Load()
	b, err := json.Marshal(rep)
	if err != nil {
		return httpmsg.AppendResponse(resp, 500, 0)
	}
	code := 200
	if !rep.Ready {
		code = 503
	}
	resp = httpmsg.AppendResponse(resp, code, len(b))
	return append(resp, b...)
}

func (s *NetServer) respond(resp []byte, req kvproto.Request, parseErr error, body []byte) []byte {
	if parseErr != nil {
		return httpmsg.AppendResponse(resp, 400, 0)
	}
	switch req.Op {
	case kvproto.OpPut:
		if err := s.backend.Put(req.Key, body); err != nil {
			return httpmsg.AppendResponse(resp, statusForErr(err), 0)
		}
		return httpmsg.AppendResponse(resp, 200, 0)
	case kvproto.OpGet:
		val, ok, err := s.backend.Get(req.Key)
		switch {
		case err != nil:
			return httpmsg.AppendResponse(resp, statusForErr(err), 0)
		case !ok:
			return httpmsg.AppendResponse(resp, 404, 0)
		}
		resp = httpmsg.AppendResponse(resp, 200, len(val))
		return append(resp, val...)
	case kvproto.OpDelete:
		found, err := s.backend.Delete(req.Key)
		switch {
		case err != nil:
			return httpmsg.AppendResponse(resp, statusForErr(err), 0)
		case !found:
			return httpmsg.AppendResponse(resp, 404, 0)
		}
		return httpmsg.AppendResponse(resp, 204, 0)
	case kvproto.OpRange:
		kvs, err := s.backend.Range(req.Start, req.End, req.Limit)
		if err != nil {
			return httpmsg.AppendResponse(resp, statusForErr(err), 0)
		}
		b := kvproto.AppendRangeBody(nil, kvs)
		resp = httpmsg.AppendResponse(resp, 200, len(b))
		return append(resp, b...)
	}
	return httpmsg.AppendResponse(resp, 400, 0)
}
