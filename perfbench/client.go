package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// maxReplyBytes bounds a response body the client will buffer. The largest
// reply any workload produces is a social timeline of feedPosts lines, well
// under 4 KiB.
const maxReplyBytes = 64 << 10

// errFraming marks a response the client could not frame: no
// Content-Length, chunked encoding, or a body larger than maxReplyBytes.
var errFraming = errors.New("unframed response")

// conn is one keep-alive HTTP/1.1 connection with an allocation-free
// round trip: prebuilt request bytes out, a ReadSlice-parsed response in,
// the body read into a reused buffer. A closed-loop caller owns it alone.
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, nc: nc, br: bufio.NewReaderSize(nc, 16<<10), body: make([]byte, maxReplyBytes)}, nil
}

// redial replaces a connection whose stream state is unknown (transport
// error, unframed reply, or a server-side close).
func (c *conn) redial() error {
	c.nc.Close()
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.nc = nc
	c.br.Reset(nc)
	return nil
}

func (c *conn) close() { c.nc.Close() }

var (
	hdrContentLength = []byte("content-length:")
	hdrTransferEnc   = []byte("transfer-encoding:")
	hdrConnection    = []byte("connection:")
	tokClose         = []byte("close")
)

// roundtrip sends req and reads one response. body aliases the connection's
// buffer until the next call. A non-nil err means the connection must be
// redialed before reuse; keepAlive=false means the server asked to close.
func (c *conn) roundtrip(req []byte) (status int, body []byte, keepAlive bool, err error) {
	if _, err := c.nc.Write(req); err != nil {
		return 0, nil, false, err
	}
	return readResponse(c.br, c.body)
}

// readResponse parses one HTTP/1.1 response from br into buf.
func readResponse(br *bufio.Reader, buf []byte) (status int, body []byte, keepAlive bool, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, nil, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return 0, nil, false, fmt.Errorf("bad status line %q", bytes.TrimSpace(line))
	}
	for _, ch := range line[9:12] {
		if ch < '0' || ch > '9' {
			return 0, nil, false, fmt.Errorf("bad status line %q", bytes.TrimSpace(line))
		}
		status = status*10 + int(ch-'0')
	}
	keepAlive = line[7] == '1'
	cl := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return status, nil, false, err
		}
		if len(line) <= 2 { // bare CRLF: end of headers
			break
		}
		switch {
		case hasPrefixFold(line, hdrContentLength):
			v := bytes.TrimSpace(line[len(hdrContentLength):])
			if len(v) == 0 || len(v) > 9 {
				return status, nil, false, fmt.Errorf("%w: content-length %q", errFraming, v)
			}
			cl = 0
			for _, ch := range v {
				if ch < '0' || ch > '9' {
					return status, nil, false, fmt.Errorf("%w: content-length %q", errFraming, v)
				}
				cl = cl*10 + int(ch-'0')
			}
		case hasPrefixFold(line, hdrTransferEnc):
			return status, nil, false, fmt.Errorf("%w: transfer-encoding", errFraming)
		case hasPrefixFold(line, hdrConnection):
			if hasPrefixFold(bytes.TrimSpace(line[len(hdrConnection):]), tokClose) {
				keepAlive = false
			}
		}
	}
	if cl < 0 {
		return status, nil, false, fmt.Errorf("%w: no content-length", errFraming)
	}
	if cl > len(buf) {
		return status, nil, false, fmt.Errorf("%w: %d-byte body", errFraming, cl)
	}
	if _, err := io.ReadFull(br, buf[:cl]); err != nil {
		return status, nil, false, err
	}
	return status, buf[:cl], keepAlive, nil
}

// hasPrefixFold is bytes.HasPrefix with ASCII case folding; prefix must be
// lower case.
func hasPrefixFold(s, prefix []byte) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i, p := range prefix {
		ch := s[i]
		if 'A' <= ch && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		if ch != p {
			return false
		}
	}
	return true
}

// buildRequest renders a POST /invoke/<fn> request. extraHeader, when not
// empty, is one "Name: value" header line without its CRLF.
func buildRequest(fn string, payload []byte, extraHeader string) []byte {
	var b bytes.Buffer
	b.WriteString("POST /invoke/")
	b.WriteString(fn)
	b.WriteString(" HTTP/1.1\r\nHost: perfbench\r\nContent-Length: ")
	b.WriteString(strconv.Itoa(len(payload)))
	b.WriteString("\r\n")
	if extraHeader != "" {
		b.WriteString(extraHeader)
		b.WriteString("\r\n")
	}
	b.WriteString("\r\n")
	b.Write(payload)
	return b.Bytes()
}

// firstLine returns the first line of a failed reply's body, for the
// failure log.
func firstLine(body []byte) string {
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		body = body[:i]
	}
	if len(body) > 120 {
		body = body[:120]
	}
	return string(bytes.TrimSpace(body))
}
