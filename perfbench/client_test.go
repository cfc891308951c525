package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func reader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestReadResponseFramesByContentLength(t *testing.T) {
	// Two pipelined responses: the first body must stop exactly at its
	// Content-Length, whatever the header's case.
	br := reader("HTTP/1.1 200 OK\r\ncontent-LENGTH: 5\r\n\r\nhelloHTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nbad")
	buf := make([]byte, 64)
	status, body, keepAlive, err := readResponse(br, buf)
	if err != nil || status != 200 || string(body) != "hello" || !keepAlive {
		t.Fatalf("first: status %d body %q keepAlive %v err %v", status, body, keepAlive, err)
	}
	status, body, _, err = readResponse(br, buf)
	if err != nil || status != 404 || string(body) != "bad" {
		t.Fatalf("second: status %d body %q err %v", status, body, err)
	}
}

func TestReadResponseRefusesUnframedBodies(t *testing.T) {
	for name, resp := range map[string]string{
		"no length":  "HTTP/1.1 200 OK\r\n\r\nhello",
		"chunked":    "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"bad length": "HTTP/1.1 200 OK\r\nContent-Length: 5x\r\n\r\nhello",
		"too large":  "HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nhello",
	} {
		if _, _, _, err := readResponse(reader(resp), make([]byte, 16)); !errors.Is(err, errFraming) {
			t.Errorf("%s: err %v, want errFraming", name, err)
		}
	}
}

func TestReadResponseShortReads(t *testing.T) {
	for name, resp := range map[string]string{
		"short body":    "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello",
		"short headers": "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n",
		"empty":         "",
	} {
		_, _, keepAlive, err := readResponse(reader(resp), make([]byte, 64))
		if err == nil || keepAlive {
			t.Errorf("%s: err %v keepAlive %v, want an error and no keep-alive", name, err, keepAlive)
		}
		if name == "short body" && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("short body: err %v, want io.ErrUnexpectedEOF", err)
		}
	}
}

func TestReadResponseConnectionClose(t *testing.T) {
	_, _, keepAlive, err := readResponse(reader("HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"), make([]byte, 8))
	if err != nil || keepAlive {
		t.Fatalf("keepAlive %v err %v, want false, nil", keepAlive, err)
	}
	_, _, keepAlive, _ = readResponse(reader("HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n"), make([]byte, 8))
	if keepAlive {
		t.Fatal("HTTP/1.0 reply kept alive")
	}
}

// fakeServer answers every request on 127.0.0.1 with reply(body), after
// delay.
func fakeServer(t *testing.T, delay time.Duration, reply func(body []byte) string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					body, _ := io.ReadAll(req.Body)
					time.Sleep(delay)
					if _, err := io.WriteString(c, reply(body)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func okReply(body []byte) string {
	return "HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + string(body)
}

func newTestCaller(t *testing.T, addr string, reqs ...request) *caller {
	t.Helper()
	c, err := dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.close)
	for i := range reqs {
		reqs[i].wire = buildRequest("echo", reqs[i].payload, "")
	}
	return newCaller(c, reqs, 1, 16)
}

func TestCallerCountsNon200AsFailed(t *testing.T) {
	addr := fakeServer(t, 0, func([]byte) string {
		body := "state: key taken\nsecond line"
		return "HTTP/1.1 500 Internal Server Error\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
	})
	cl := newTestCaller(t, addr, request{payload: []byte("x"), want: []byte("x")})
	cl.run(time.Now().Add(20 * time.Millisecond))
	if cl.attempted == 0 || cl.failed != cl.attempted || cl.ok != 0 || cl.wrong != 0 {
		t.Fatalf("attempted %d ok %d failed %d wrong %d", cl.attempted, cl.ok, cl.failed, cl.wrong)
	}
	if f := cl.fails[0]; f.status != 500 || f.msg != "state: key taken" {
		t.Fatalf("failure %+v, want status 500 and the body's first line", f)
	}
}

func conflictReply() string {
	body := "state: key taken by another invocation\n"
	return "HTTP/1.1 500 Internal Server Error\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

func TestCallerResendsTakeConflicts(t *testing.T) {
	// Every request loses three ownership races before it succeeds.
	var n atomic.Int64
	addr := fakeServer(t, 0, func(body []byte) string {
		if n.Add(1)%4 != 0 {
			return conflictReply()
		}
		return okReply(body)
	})
	cl := newTestCaller(t, addr, request{payload: []byte("x"), want: []byte("x")})
	cl.run(time.Now().Add(20 * time.Millisecond))
	if cl.attempted == 0 || cl.ok != cl.attempted || cl.failed != 0 || cl.conflicts != 3*cl.attempted || cl.opConflicts[0] != cl.conflicts {
		t.Fatalf("attempted %d ok %d failed %d conflicts %d, want every request OK after 3 resends",
			cl.attempted, cl.ok, cl.failed, cl.conflicts)
	}
}

func TestCallerFailsPersistentTakeConflicts(t *testing.T) {
	addr := fakeServer(t, 0, func([]byte) string { return conflictReply() })
	cl := newTestCaller(t, addr, request{payload: []byte("x"), want: []byte("x")})
	cl.run(time.Now().Add(20 * time.Millisecond))
	if cl.attempted == 0 || cl.failed != cl.attempted || cl.conflicts != maxConflictRetries*cl.attempted {
		t.Fatalf("attempted %d failed %d conflicts %d, want each request failed after %d resends",
			cl.attempted, cl.failed, cl.conflicts, maxConflictRetries)
	}
	if f := cl.fails[0]; f.status != 500 || f.msg != string(takeConflict) {
		t.Fatalf("failure %+v, want the conflict reply", f)
	}
}

func TestCallerChecksReplies(t *testing.T) {
	addr := fakeServer(t, 0, func([]byte) string { return okReply([]byte("nope")) })
	cl := newTestCaller(t, addr, request{payload: []byte("x"), want: []byte("x")})
	cl.run(time.Now().Add(10 * time.Millisecond))
	if cl.wrong == 0 || cl.wrong != cl.failed || cl.ok != 0 {
		t.Fatalf("ok %d failed %d wrong %d: a wrong 200 must count as wrong and failed", cl.ok, cl.failed, cl.wrong)
	}
}

func TestCallerWaitsForTheRequestInFlight(t *testing.T) {
	// The reply arrives well after the deadline; it still counts.
	addr := fakeServer(t, 50*time.Millisecond, okReply)
	cl := newTestCaller(t, addr, request{payload: []byte("x"), want: []byte("x")})
	cl.run(time.Now().Add(5 * time.Millisecond))
	if cl.attempted != 1 || cl.ok != 1 || cl.failed != 0 || len(cl.lat) != 1 {
		t.Fatalf("attempted %d ok %d failed %d samples %d, want 1 1 0 1", cl.attempted, cl.ok, cl.failed, len(cl.lat))
	}
}

func TestCallerRedialsAfterClose(t *testing.T) {
	addr := fakeServer(t, 0, func(body []byte) string {
		return "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + string(body)
	})
	cl := newTestCaller(t, addr, request{payload: []byte("x"), want: []byte("x")})
	cl.run(time.Now().Add(20 * time.Millisecond))
	if cl.ok < 2 || cl.failed != 0 {
		t.Fatalf("ok %d failed %d: the caller must redial after Connection: close", cl.ok, cl.failed)
	}
}

func TestRoundtripDoesNotAllocate(t *testing.T) {
	// A raw server that reads each request as a fixed-size block and
	// writes a fixed reply, so every allocation counted is the client's.
	req := buildRequest("echo", []byte("payload"), "")
	reply := []byte(okReply([]byte("payload")))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, len(req))
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(reply); err != nil {
				return
			}
		}
	}()
	c, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	allocs := testing.AllocsPerRun(500, func() {
		if _, _, _, err := c.roundtrip(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("roundtrip: %v allocs/op, want 0", allocs)
	}
}
