package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// httpConn is one keep-alive HTTP/1.1 connection of the load generator,
// used synchronously: a request is written and its response read on the
// caller's goroutine. net/http's Transport hands every request to a writer
// and a reader goroutine of the connection; on two shared CPUs each
// hand-off is a cross-CPU wake-up that would show up in the measured
// latency and cost the server CPU it is being measured on.
type httpConn struct {
	addr string // host:port of the server
	c    net.Conn
	br   *bufio.Reader
	head []byte
}

func newConn(addr string) *httpConn { return &httpConn{addr: addr} }

// post sends one request and returns the response status and body. A
// transport error closes the connection; the next post dials again.
func (h *httpConn) post(path string, body []byte) (int, []byte, error) {
	if h.c == nil {
		c, err := net.Dial("tcp", h.addr)
		if err != nil {
			return 0, nil, err
		}
		h.c, h.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	if err := h.c.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		h.close()
		return 0, nil, err
	}
	h.head = fmt.Appendf(h.head[:0], "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/x-ndjson\r\nContent-Length: %d\r\n\r\n",
		path, h.addr, len(body))
	bufs := net.Buffers{h.head, body}
	if _, err := bufs.WriteTo(h.c); err != nil {
		h.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		h.close()
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		h.close()
	}
	return resp.StatusCode, b, err
}

func (h *httpConn) close() {
	if h.c != nil {
		h.c.Close()
		h.c = nil
	}
}
