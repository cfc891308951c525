package gateway

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// IdempotencyKeyHeader names the header a front-end dispatcher stamps on
// every forwarded invocation. A worker that sees a key it has already
// completed replays the recorded response instead of executing the
// function again — the mechanism that turns the dispatcher's
// retry-after-a-broken-connection from at-least-once into at-most-once
// per worker. Clients may supply their own key; absent one, the
// dispatcher generates it.
const IdempotencyKeyHeader = "X-Jord-Idempotency-Key"

// DedupHeader marks a response that was replayed from the idempotency
// cache rather than executed ("1"). The dispatcher forwards it so a
// client (and the dispatcher's own dedup_hits counter) can tell a replay
// from a fresh execution.
const DedupHeader = "X-Jord-Dedup"

// maxDedupBody caps the response size the cache will remember. A
// completed response larger than this is not cached (the Commit degrades
// to an Abort): replaying it would be nice, but pinning megabytes per key
// is how a retry cache becomes a memory leak.
const maxDedupBody = 256 << 10

// dedupEntry is one idempotency key's slot: in progress until the leader
// commits or aborts, then (if committed) a recorded response.
type dedupEntry struct {
	key  string
	done chan struct{} // closed once the outcome is recorded

	// Written before close(done), read only after <-done (or under the
	// cache mutex).
	committed bool
	status    int
	ctype     string
	body      []byte

	elem *list.Element // LRU position; nil while in progress
}

// Done is closed once the entry's outcome (commit or abort) is recorded.
func (e *dedupEntry) Done() <-chan struct{} { return e.done }

// Result returns the recorded response after Done. ok=false means the
// leader aborted (refusal, cancellation, oversized body): the request
// was NOT completed and the caller should race for leadership itself.
func (e *dedupEntry) Result() (status int, ctype string, body []byte, ok bool) {
	if !e.committed {
		return 0, "", nil, false
	}
	return e.status, e.ctype, e.body, true
}

// DedupCache is the bounded idempotent-replay cache: completed /invoke
// responses keyed by IdempotencyKeyHeader, evicted LRU by entry count and
// total body bytes. Concurrent arrivals of the same key single-flight:
// the first caller (the leader) executes, the rest wait on Done and
// replay the committed result.
//
// The cache is per worker. A retry that lands on a DIFFERENT worker will
// not find the key — which is why the dispatcher's retry policy replays
// unsafe (post-delivery) failures on the same worker first.
type DedupCache struct {
	mu       sync.Mutex
	maxEnt   int
	maxBytes int64
	bytes    int64
	entries  map[string]*dedupEntry
	lru      *list.List // completed entries only; front = most recent

	hits      atomic.Uint64 // Begin found a committed or in-progress entry
	evictions atomic.Uint64
}

// NewDedupCache builds a cache holding up to maxEntries completed
// responses (0 = 4096) within a total body-byte budget of
// maxEntries x 16 KiB (min 4 MiB).
func NewDedupCache(maxEntries int) *DedupCache {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	maxBytes := int64(maxEntries) * (16 << 10)
	if maxBytes < 4<<20 {
		maxBytes = 4 << 20
	}
	return &DedupCache{
		maxEnt:   maxEntries,
		maxBytes: maxBytes,
		entries:  make(map[string]*dedupEntry),
		lru:      list.New(),
	}
}

// Begin claims or joins the entry for key. leader=true: the caller owns
// the execution and MUST finish with Commit or Abort. leader=false: some
// other request holds (or held) the key — wait on e.Done(), then read
// e.Result(); if ok=false the leader aborted and the caller should call
// Begin again (it may now become the leader).
//
// key is the header's raw bytes: a lookup converts them without copying,
// and only a new entry materializes the key string.
func (c *DedupCache) Begin(key []byte) (e *dedupEntry, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[string(key)]; e != nil {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.hits.Add(1)
		return e, false
	}
	e = &dedupEntry{key: string(key), done: make(chan struct{})}
	c.entries[e.key] = e
	return e, true
}

// Commit records the leader's completed response (body is copied) and
// wakes every waiter. Oversized bodies are not cached — the entry aborts
// instead, and a late retry re-executes (at-least-once for that key).
func (c *DedupCache) Commit(e *dedupEntry, status int, ctype string, body []byte) {
	if len(body) > maxDedupBody {
		c.Abort(e)
		return
	}
	cp := make([]byte, len(body))
	copy(cp, body)
	c.mu.Lock()
	e.committed = true
	e.status = status
	e.ctype = ctype
	e.body = cp
	e.elem = c.lru.PushFront(e)
	c.bytes += int64(len(cp))
	// Evict completed entries LRU-first until within both budgets.
	// In-progress entries never sit in the list, so they are never evicted
	// out from under their waiters.
	for c.lru.Len() > c.maxEnt || c.bytes > c.maxBytes {
		tail := c.lru.Back()
		if tail == nil || tail == e.elem {
			break
		}
		c.removeLocked(tail.Value.(*dedupEntry))
		c.evictions.Add(1)
	}
	c.mu.Unlock()
	close(e.done)
}

// Abort discards an entry whose request did not complete (refusal,
// cancellation): waiters wake with ok=false and race to become the next
// leader.
func (c *DedupCache) Abort(e *dedupEntry) {
	c.mu.Lock()
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
	c.mu.Unlock()
	close(e.done)
}

func (c *DedupCache) removeLocked(e *dedupEntry) {
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
	if e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
	c.bytes -= int64(len(e.body))
}

// Len reports the number of completed cached responses.
func (c *DedupCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Hits reports how many Begin calls found an existing entry.
func (c *DedupCache) Hits() uint64 { return c.hits.Load() }

// Evictions reports how many completed entries the budgets pushed out.
func (c *DedupCache) Evictions() uint64 { return c.evictions.Load() }
