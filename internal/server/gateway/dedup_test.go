package gateway

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jord/internal/server/admission"
	"jord/internal/server/breaker"
	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
)

// newDedupRig builds a live gateway with the idempotency cache enabled and
// counting functions, served through the edge on a loopback listener with
// the given request deadline.
func newDedupRig(t *testing.T, timeout time.Duration) (edgeURL string, calls *atomic.Int64, g *Gateway, stop func()) {
	t.Helper()
	calls = &atomic.Int64{}
	reg := router.New()
	reg.MustRegister("count", func(ctx router.Ctx) ([]byte, error) {
		n := calls.Add(1)
		return []byte(fmt.Sprintf("call-%d:%s", n, ctx.Payload())), nil
	})
	reg.MustRegister("fail", func(ctx router.Ctx) ([]byte, error) {
		calls.Add(1)
		return nil, fmt.Errorf("intentional")
	})
	reg.MustRegister("degraded", func(ctx router.Ctx) ([]byte, error) {
		calls.Add(1)
		return nil, state.ErrDegraded
	})
	reg.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
		return ctx.Payload(), nil
	})
	p := pool.New(pool.Config{Executors: 2, Orchestrators: 1, NumPDs: 64}, reg)
	p.Start()
	g = &Gateway{
		Reg:            reg,
		Pool:           p,
		Adm:            admission.New(1024),
		Breakers:       breaker.NewSet(breaker.Config{}, reg.Names()),
		RequestTimeout: timeout,
		MaxBodyBytes:   1 << 20,
		Dedup:          NewDedupCache(64),
	}
	addr, stop := serveEdge(t, g)
	return "http://" + addr, calls, g, stop
}

// oneShot sends every request over a fresh connection, so a replay is
// always answered on a different connection than the original.
var oneShot = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

func keyedInvoke(t *testing.T, base, fn, key, payload string) (status int, dedup bool, body string) {
	status, h, body := keyedInvokeHeader(t, base, fn, key, payload)
	return status, h.Get(DedupHeader) == "1", body
}

func keyedInvokeHeader(t *testing.T, base, fn, key, payload string) (status int, h http.Header, body string) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/invoke/"+fn, strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if key != "" {
		req.Header.Set(IdempotencyKeyHeader, key)
	}
	resp, err := oneShot.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// TestDedupReplayAcrossConnections: the same idempotency key executes once
// and replays byte-identically on every later connection, while keyless
// requests still execute fresh.
func TestDedupReplayAcrossConnections(t *testing.T) {
	base, calls, _, stop := newDedupRig(t, 5*time.Second)
	defer stop()

	status, dedup, first := keyedInvoke(t, base, "count", "k1", "hello")
	if status != 200 || dedup {
		t.Fatalf("first: status=%d dedup=%v", status, dedup)
	}
	// Two replays, each on its own connection: identical body, marked
	// replay, no second execution.
	for i := 0; i < 2; i++ {
		status, dedup, body := keyedInvoke(t, base, "count", "k1", "hello")
		if status != 200 || !dedup || body != first {
			t.Fatalf("replay %d: status=%d dedup=%v body=%q want %q", i, status, dedup, body, first)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("function executed %d times, want 1", n)
	}

	// Keyless requests keep the fast path: fresh execution.
	status, dedup, _ = keyedInvoke(t, base, "count", "", "hello")
	if status != 200 || dedup {
		t.Fatalf("keyless: status=%d dedup=%v", status, dedup)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("keyless should execute, calls=%d want 2", n)
	}
}

// TestDedupCachesFunctionError: a function-level failure is a completed
// execution — the 500 replays rather than re-running the function.
func TestDedupCachesFunctionError(t *testing.T) {
	base, calls, _, stop := newDedupRig(t, 5*time.Second)
	defer stop()

	status, _, first := keyedInvoke(t, base, "fail", "ek", "x")
	if status != 500 || !strings.Contains(first, "intentional") {
		t.Fatalf("first: status=%d body=%q", status, first)
	}
	status, dedup, body := keyedInvoke(t, base, "fail", "ek", "x")
	if status != 500 || !dedup || body != first {
		t.Fatalf("replay: status=%d dedup=%v body=%q want %q", status, dedup, body, first)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fail executed %d times, want 1", n)
	}
}

// TestDedupStateDegradedNotCached: a body refused by the degraded state
// tier answers 503 with Retry-After, like any other degradation, and is
// not recorded — a resend with the same key executes again rather than
// replaying a status the original never sent.
func TestDedupStateDegradedNotCached(t *testing.T) {
	base, calls, _, stop := newDedupRig(t, 5*time.Second)
	defer stop()

	for i := 1; i <= 2; i++ {
		status, h, _ := keyedInvokeHeader(t, base, "degraded", "dk", "x")
		if status != http.StatusServiceUnavailable || h.Get("Retry-After") == "" {
			t.Fatalf("send %d: status=%d Retry-After=%q, want 503 with Retry-After", i, status, h.Get("Retry-After"))
		}
		if h.Get(DedupHeader) != "" {
			t.Fatalf("send %d: answered from the replay cache", i)
		}
		if n := calls.Load(); n != int64(i) {
			t.Fatalf("send %d: executed %d times, want %d", i, n, i)
		}
	}
}

// TestDedupSingleFlight: concurrent arrivals of one key execute the
// function once; every caller gets the same completed response.
func TestDedupSingleFlight(t *testing.T) {
	base, calls, _, stop := newDedupRig(t, 5*time.Second)
	defer stop()

	const clients = 8
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, body := keyedInvoke(t, base, "count", "sf", "p")
			if status != 200 {
				t.Errorf("client %d: status=%d", i, status)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("function executed %d times, want 1", n)
	}
	for i := 1; i < clients; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d saw %q, client 0 saw %q", i, bodies[i], bodies[0])
		}
	}
}

// TestDedupFollowerDeadline: a request whose key is held by an unfinished
// leader waits for it only until its own deadline, then answers 504
// without executing; the leader still completes, and later arrivals
// replay its result.
func TestDedupFollowerDeadline(t *testing.T) {
	const timeout = 300 * time.Millisecond
	base, calls, g, stop := newDedupRig(t, timeout)
	defer stop()

	// The leader claims the key as soon as its header is parsed, then
	// holds the claim while its body is withheld.
	leader, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if _, err := io.WriteString(leader, "POST /invoke/count HTTP/1.1\r\nHost: x\r\n"+
		IdempotencyKeyHeader+": held\r\nContent-Length: 5\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !g.Dedup.held("held"); {
		if time.Now().After(deadline) {
			t.Fatal("leader never claimed the key")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	status, dedup, _ := keyedInvoke(t, base, "count", "held", "hello")
	if waited := time.Since(start); status != http.StatusGatewayTimeout || dedup {
		t.Fatalf("follower: status=%d dedup=%v after %v, want 504", status, dedup, waited)
	} else if waited < timeout {
		t.Fatalf("follower answered after %v, before its %v deadline", waited, timeout)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("follower executed: calls=%d", n)
	}

	// The leader sends its body and completes; a later arrival replays it.
	leader.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(leader, "hello"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(leader), nil)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("leader: status=%d", resp.StatusCode)
	}
	status, dedup, body := keyedInvoke(t, base, "count", "held", "hello")
	if status != 200 || !dedup || body != string(first) {
		t.Fatalf("replay: status=%d dedup=%v body=%q want %q", status, dedup, body, first)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1", n)
	}
}

// held reports whether key has an entry, in progress or completed.
func (c *DedupCache) held(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key] != nil
}

// TestDedupAbortReRace: when the leader aborts (request not completed),
// a waiter wakes with ok=false and can claim leadership itself.
func TestDedupAbortReRace(t *testing.T) {
	c := NewDedupCache(8)
	e1, leader := c.Begin([]byte("k"))
	if !leader {
		t.Fatal("first Begin should lead")
	}
	e2, leader := c.Begin([]byte("k"))
	if leader {
		t.Fatal("second Begin should follow")
	}
	c.Abort(e1)
	<-e2.Done()
	if _, _, _, ok := e2.Result(); ok {
		t.Fatal("aborted entry should report ok=false")
	}
	if _, leader := c.Begin([]byte("k")); !leader {
		t.Fatal("post-abort Begin should lead again")
	}
	if c.Hits() != 1 {
		t.Fatalf("hits=%d want 1", c.Hits())
	}
}

// TestDedupLRUEviction: the entry-count budget evicts oldest-first, and
// oversized bodies degrade to an abort rather than pinning memory.
func TestDedupLRUEviction(t *testing.T) {
	c := NewDedupCache(4)
	for i := 0; i < 6; i++ {
		e, leader := c.Begin(fmt.Appendf(nil, "k%d", i))
		if !leader {
			t.Fatalf("k%d: not leader", i)
		}
		c.Commit(e, 200, "text/plain", []byte("r"))
	}
	if c.Len() != 4 {
		t.Fatalf("len=%d want 4", c.Len())
	}
	if c.Evictions() != 2 {
		t.Fatalf("evictions=%d want 2", c.Evictions())
	}
	// k0, k1 evicted; k5 still present.
	if _, leader := c.Begin([]byte("k0")); !leader {
		t.Fatal("evicted key should lead again")
	}
	e, leader := c.Begin([]byte("k5"))
	if leader {
		t.Fatal("k5 should still be cached")
	}
	if status, _, body, ok := e.Result(); !ok || status != 200 || string(body) != "r" {
		t.Fatalf("k5 result: ok=%v status=%d body=%q", ok, status, body)
	}

	// Oversized commit: not cached, key free for re-execution.
	big, leader := c.Begin([]byte("big"))
	if !leader {
		t.Fatal("big: not leader")
	}
	c.Commit(big, 200, "text/plain", make([]byte, maxDedupBody+1))
	if _, leader := c.Begin([]byte("big")); !leader {
		t.Fatal("oversized body must not be cached")
	}
}

// TestDedupByteBudget: the total-body-bytes budget evicts even when the
// entry count is within bounds.
func TestDedupByteBudget(t *testing.T) {
	c := NewDedupCache(8)
	c.maxBytes = 100
	for i := 0; i < 4; i++ {
		e, _ := c.Begin(fmt.Appendf(nil, "b%d", i))
		c.Commit(e, 200, "", make([]byte, 40))
	}
	if c.bytes > 100 {
		t.Fatalf("bytes=%d exceeds budget 100", c.bytes)
	}
	if c.Evictions() == 0 {
		t.Fatal("byte budget should have evicted")
	}
}
