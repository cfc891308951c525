package main

import (
	"bytes"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"jord/internal/server/state"
)

// failure is one failed request: the HTTP status (0 for a transport or
// framing error, 200 for a wrong reply) and the first line of its body or
// the error text.
type failure struct {
	op     int
	status int
	msg    string
}

// maxFailureLog caps the failures a caller keeps verbatim; the rest are
// only counted.
const maxFailureLog = 32

// failedLatency is the latency recorded for a failed request: a failure
// misses every latency limit.
const failedLatency = math.MaxInt64

// caller is one closed-loop client: a connection, its request stream and
// its tallies. Only its own goroutine touches it during a window.
type caller struct {
	c      *conn
	stream []request
	pos    int // next stream index; carries across windows

	// keyAt, when >= 0, is the offset of a fixed-width idempotency key in
	// every wire request of stream, rewritten before each send.
	keyAt  int
	keySeq uint64

	attempted, ok, failed, wrong uint64
	conflicts                    uint64 // take conflicts resent
	opAttempted, opFailed        []uint64
	opConflicts                  []uint64
	lat                          []int64 // per request, ns; failed = failedLatency
	latOp                        []uint8 // op of lat[i]
	fails                        []failure
}

// newCaller sizes the latency buffers for latCap samples per window and
// touches them, so the client's resident memory does not grow with the
// program's throughput.
func newCaller(c *conn, stream []request, ops int, latCap int) *caller {
	lat := make([]int64, latCap)
	latOp := make([]uint8, latCap)
	for i := range lat {
		lat[i] = 1
		latOp[i] = 1
	}
	return &caller{
		c: c, stream: stream, keyAt: -1,
		opAttempted: make([]uint64, ops),
		opFailed:    make([]uint64, ops),
		opConflicts: make([]uint64, ops),
		lat:         lat[:0],
		latOp:       latOp[:0],
	}
}

// reset clears the tallies, keeping the stream position and buffers.
func (cl *caller) reset() {
	cl.attempted, cl.ok, cl.failed, cl.wrong, cl.conflicts = 0, 0, 0, 0, 0
	clear(cl.opAttempted)
	clear(cl.opFailed)
	clear(cl.opConflicts)
	cl.lat = cl.lat[:0]
	cl.latOp = cl.latOp[:0]
	cl.fails = cl.fails[:0]
}

func resetCallers(callers []*caller) {
	for _, cl := range callers {
		cl.reset()
	}
}

// maxConflictRetries bounds how often a caller resends a request that
// lost a state-ownership race (see isTakeConflict) before counting it
// failed.
const maxConflictRetries = 16

// takeConflict is the first line of the 500 reply to an invocation that
// gave up on a state key another invocation held: a transient conflict,
// which the caller resends like a client retrying an aborted transaction.
var takeConflict = []byte(state.ErrTaken.Error())

func isTakeConflict(status int, body []byte) bool {
	return status == http.StatusInternalServerError && bytes.Equal(bytes.TrimSpace(body), takeConflict)
}

// run sends requests one at a time until deadline; the request in flight
// at the deadline is waited for and counted. A take conflict is resent on
// the same connection, and the request's latency runs from its first send
// to its final reply, so conflicts cost latency, not failures.
func (cl *caller) run(deadline time.Time) {
	for time.Now().Before(deadline) {
		r := &cl.stream[cl.pos]
		cl.pos++
		if cl.pos == len(cl.stream) {
			cl.pos = 0
		}
		if cl.keyAt >= 0 {
			cl.keySeq++
			putKey(r.wire[cl.keyAt:cl.keyAt+keyDigits], cl.keySeq)
		}
		cl.attempted++
		cl.opAttempted[r.op]++
		t0 := time.Now()
		status, body, keepAlive, err := cl.c.roundtrip(r.wire)
		for try := 0; err == nil && try < maxConflictRetries && isTakeConflict(status, body); try++ {
			cl.conflicts++
			cl.opConflicts[r.op]++
			if !keepAlive {
				break
			}
			status, body, keepAlive, err = cl.c.roundtrip(r.wire)
		}
		d := time.Since(t0).Nanoseconds()
		switch {
		case err != nil:
			cl.fail(r.op, 0, err.Error())
			keepAlive = false
		case status != http.StatusOK:
			cl.fail(r.op, status, firstLine(body))
		case !r.ok(body):
			cl.wrong++
			cl.fail(r.op, status, "wrong reply: "+firstLine(body))
		default:
			cl.ok++
			cl.record(r.op, d)
		}
		if !keepAlive {
			for cl.c.redial() != nil {
				if !time.Now().Before(deadline) {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

func (cl *caller) record(op int, d int64) {
	cl.lat = append(cl.lat, d)
	cl.latOp = append(cl.latOp, uint8(op))
}

func (cl *caller) fail(op, status int, msg string) {
	cl.failed++
	cl.opFailed[op]++
	cl.record(op, failedLatency)
	if len(cl.fails) < maxFailureLog {
		cl.fails = append(cl.fails, failure{op: op, status: status, msg: msg})
	}
}

// window runs every caller for d in parallel and returns the wall time
// from start until the last reply.
func window(callers []*caller, d time.Duration) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, cl := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(deadline)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// tally sums callers' counts.
type tally struct {
	attempted, ok, failed, wrong, conflicts uint64
	opAttempted, opFailed, opConflicts      []uint64
	fails                                   []failure
}

func newTally(ops int) tally {
	return tally{opAttempted: make([]uint64, ops), opFailed: make([]uint64, ops), opConflicts: make([]uint64, ops)}
}

func sumCallers(callers []*caller, ops int) tally {
	t := newTally(ops)
	for _, cl := range callers {
		t.add(tally{cl.attempted, cl.ok, cl.failed, cl.wrong, cl.conflicts, cl.opAttempted, cl.opFailed, cl.opConflicts, cl.fails})
	}
	return t
}

// add folds u into t; t's per-op slices must be at least as long as u's.
func (t *tally) add(u tally) {
	if t.opAttempted == nil {
		*t = newTally(len(u.opAttempted))
	}
	t.attempted += u.attempted
	t.ok += u.ok
	t.failed += u.failed
	t.wrong += u.wrong
	t.conflicts += u.conflicts
	for i := range u.opAttempted {
		t.opAttempted[i] += u.opAttempted[i]
		t.opFailed[i] += u.opFailed[i]
		t.opConflicts[i] += u.opConflicts[i]
	}
	t.fails = append(t.fails, u.fails...)
}

// latencies gathers the callers' latencies, of one op or (op < 0) of all,
// sorted ascending.
func latencies(callers []*caller, op int) []int64 {
	var out []int64
	for _, cl := range callers {
		for i, d := range cl.lat {
			if op < 0 || int(cl.latOp[i]) == op {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantileUS is the nearest-rank q-quantile of sorted ns values, in µs.
func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

// meanOKUS is the mean latency of successful requests, in µs.
func meanOKUS(sorted []int64) float64 {
	var sum float64
	n := 0
	for _, d := range sorted {
		if d != failedLatency {
			sum += float64(d)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1e3
}

// keyDigits is the width of the decimal counter in a keyed request.
const keyDigits = 16

// putKey writes seq as keyDigits zero-padded decimal digits into dst.
func putKey(dst []byte, seq uint64) {
	for i := keyDigits - 1; i >= 0; i-- {
		dst[i] = byte('0' + seq%10)
		seq /= 10
	}
}
