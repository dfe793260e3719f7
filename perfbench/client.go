package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// client is one keep-alive HTTP/1.1 connection of the generator. It
// writes prebuilt request bytes and reads the response into a reused
// buffer: the generator shares the machine with the server, so it must
// cost little CPU and produce little garbage, or its own pauses would
// show up as server latency.
type client struct {
	// wantSpans keeps each response's X-Yprov-Spans header in spans
	// (traced runs only: the copy costs an allocation).
	wantSpans bool
	spans     string
	host      string
	conn      net.Conn
	br        *bufio.Reader
	req       []byte
	body      []byte
}

// newClients returns n clients for base ("http://host:port"): the
// generator never holds more than n connections.
func newClients(base string, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{host: strings.TrimPrefix(base, "http://")}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// errNoResponse marks a failure before any response byte arrived, when
// a request on a reused connection may be retried once.
var errNoResponse = errors.New("connection closed before the response")

// do sends one request and returns the status and the body, which is
// valid until the next call on c.
func (c *client) do(method, path string, body []byte, trace string) (int, []byte, error) {
	reused := c.conn != nil
	status, b, err := c.roundTrip(method, path, body, trace)
	if err != nil {
		c.close()
		if reused && errors.Is(err, errNoResponse) {
			status, b, err = c.roundTrip(method, path, body, trace)
			if err != nil {
				c.close()
			}
		}
	}
	return status, b, err
}

func (c *client) roundTrip(method, path string, body []byte, trace string) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.host, 5*time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 64<<10)
	}
	r := append(c.req[:0], method...)
	r = append(r, ' ')
	r = append(r, path...)
	r = append(r, " HTTP/1.1\r\nHost: "...)
	r = append(r, c.host...)
	if trace != "" {
		r = append(r, "\r\nX-Yprov-Trace: "...)
		r = append(r, trace...)
	}
	if body != nil {
		r = append(r, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		r = strconv.AppendInt(r, int64(len(body)), 10)
	}
	r = append(r, "\r\n\r\n"...)
	r = append(r, body...)
	c.req = r
	if err := c.conn.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(r); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", errNoResponse, err)
	}
	return c.readResponse(method == "HEAD")
}

// readResponse parses the status line, the headers it needs, and a
// Content-Length or chunked body.
func (c *client) readResponse(head bool) (int, []byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		if len(line) == 0 && (err == io.EOF || errors.Is(err, net.ErrClosed)) {
			return 0, nil, errNoResponse
		}
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, closeAfter := -1, false, false
	c.spans = ""
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		k, v, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			closeAfter = bytes.EqualFold(v, []byte("close"))
		case c.wantSpans && bytes.EqualFold(k, []byte("X-Yprov-Spans")):
			c.spans = string(v)
		}
	}
	c.body = c.body[:0]
	switch {
	case head || status == 204 || status == 304 || status/100 == 1:
	case chunked:
		if err := c.readChunked(); err != nil {
			return 0, nil, err
		}
	case length >= 0:
		if cap(c.body) < length {
			c.body = make([]byte, length)
		}
		c.body = c.body[:length]
		if _, err := io.ReadFull(c.br, c.body); err != nil {
			return 0, nil, err
		}
	default:
		b, err := io.ReadAll(c.br)
		if err != nil {
			return 0, nil, err
		}
		c.body, closeAfter = b, true
	}
	if closeAfter {
		c.close()
	}
	return status, c.body, nil
}

func (c *client) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		sz := string(bytes.TrimRight(line, "\r\n"))
		if i := strings.IndexByte(sz, ';'); i >= 0 {
			sz = sz[:i]
		}
		n, err := strconv.ParseInt(sz, 16, 64)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", sz)
		}
		if n == 0 {
			for { // trailers end with an empty line
				t, err := c.br.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(bytes.TrimRight(t, "\r\n")) == 0 {
					return nil
				}
			}
		}
		start := len(c.body)
		c.body = append(c.body, make([]byte, n)...)
		if _, err := io.ReadFull(c.br, c.body[start:]); err != nil {
			return err
		}
		if _, err := c.br.Discard(2); err != nil {
			return err
		}
	}
}
