package workloads

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jord/internal/server/router"
	"jord/internal/server/state"
)

// This file ports the social-network graph (DeathStarBench's social app,
// the same graph buildSocial models on the simulator) to LIVE stateful
// functions over the shared-state tier: the graph, timelines, posts, and
// profiles live in store-owned VMAs and every access walks the permission
// model — pcopy R snapshots for reads, pmove RW ownership for updates,
// G-bit promotion for the hot read-mostly objects (profiles, hot posts).
//
// Two registrations exist so jordbench can compare them head-to-head:
//
//   - RegisterSocialLive ("social.*"): shared state. Reads are zero-copy
//     aliases of the committed value; read-modify-writes take exclusive
//     ownership of exactly the keys they touch.
//   - RegisterSocialCopy ("socialcopy.*"): the copy-per-request baseline a
//     conventional FaaS state service imposes — every read and every write
//     crosses the store boundary by value (memcpy), counted in CopyStats.
//
// The function bodies are identical; only the store behind them differs.

// Live social functions and their payloads (whitespace-separated tokens):
//
//	social.follow    "<user> <followee>"  update both graph directions
//	social.post      "<user> <text...>"   store post, fan out to timelines
//	social.timeline  "<user>"             assemble the user's feed
//	social.read      "<post-id>"          read one post (hot-key path)
//	social.profile   "<user>"             read-mostly profile blob

// timelineCap bounds each materialized timeline (newest first), like the
// bounded Redis lists real timeline services keep.
const timelineCap = 32

// feedPosts is how many posts social.timeline resolves per request.
const feedPosts = 10

// Contended StateTake retries. The store never blocks a taker (ErrTaken is
// immediate) and an owner holds a key only from its Take to its Commit,
// never across a nested call, so the key frees as soon as the owner runs
// again. On a loaded machine the owner's thread can be descheduled for
// milliseconds, longer than any fixed number of yields covers, so update
// retries for a span of time: takeSpins yields first, then sleeps that
// double up to takeMaxSleep, until takeBudget has passed since the first
// conflict or the invocation's own context ends.
const (
	takeSpins    = 64
	takeMaxSleep = time.Millisecond
	takeBudget   = time.Second
)

// socialStore is the tiny store seam the social bodies run over: the
// shared-state tier or the copying baseline.
type socialStore interface {
	// read returns the value (nil, false if absent) plus a release func for
	// zero-copy stores (nil when there is nothing to release).
	read(ctx router.Ctx, key string) (val []byte, ok bool, release func(), err error)
	// write creates or replaces key.
	write(ctx router.Ctx, key string, val []byte) error
	// update applies f to the current value (nil if absent) and commits the
	// result, returning it. Exclusive per key for the duration of f.
	update(ctx router.Ctx, key string, f func(old []byte) []byte) ([]byte, error)
}

// sharedStore backs the social bodies with the node-global tier of the
// shared-state store via the invocation's own LiveCtx — every operation is
// permission-checked against the invocation's protection domain.
type sharedStore struct{}

func (sharedStore) read(ctx router.Ctx, key string) ([]byte, bool, func(), error) {
	sn, err := ctx.StateGet(router.StateGlobal, key)
	if err != nil {
		if errors.Is(err, state.ErrNotFound) {
			return nil, false, nil, nil
		}
		return nil, false, nil, err
	}
	return sn.Bytes(), true, sn.Release, nil
}

func (sharedStore) write(ctx router.Ctx, key string, val []byte) error {
	_, err := ctx.StatePut(router.StateGlobal, key, val)
	return err
}

func (sharedStore) update(ctx router.Ctx, key string, f func(old []byte) []byte) ([]byte, error) {
	var (
		giveUp time.Time
		sleep  = 10 * time.Microsecond
	)
	for attempt := 0; ; attempt++ {
		tx, err := ctx.StateTake(router.StateGlobal, key)
		if err != nil {
			// Another invocation owns the key this instant: back off and
			// retry (see takeBudget).
			if !errors.Is(err, state.ErrTaken) {
				return nil, err
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			if now := time.Now(); giveUp.IsZero() {
				giveUp = now.Add(takeBudget)
			} else if now.After(giveUp) {
				return nil, err
			}
			if attempt < takeSpins {
				runtime.Gosched()
				continue
			}
			time.Sleep(sleep)
			sleep = min(2*sleep, takeMaxSleep)
			continue
		}
		next := f(tx.Bytes())
		if _, err := tx.Commit(next); err != nil {
			tx.Discard()
			return nil, err
		}
		return next, nil
	}
}

// CopyStats counts the bytes the copying baseline moved across its store
// boundary — what the shared-state tier's copy_bytes_avoided counter is
// measured against.
type CopyStats struct {
	ReadBytes  atomic.Uint64 // copied out of the store on reads
	WriteBytes atomic.Uint64 // copied into the store on writes
}

// copyStore is the conventional baseline: a mutex-guarded map that copies
// every value in on write and out on read, as a store behind a serialization
// boundary (Redis, a state API) must.
type copyStore struct {
	mu    sync.RWMutex
	m     map[string][]byte
	stats *CopyStats
}

func (s *copyStore) read(_ router.Ctx, key string) ([]byte, bool, func(), error) {
	s.mu.RLock()
	v, ok := s.m[key]
	var out []byte
	if ok {
		out = append([]byte(nil), v...)
	}
	s.mu.RUnlock()
	if !ok {
		return nil, false, nil, nil
	}
	s.stats.ReadBytes.Add(uint64(len(out)))
	return out, true, nil, nil
}

func (s *copyStore) write(_ router.Ctx, key string, val []byte) error {
	cp := append([]byte(nil), val...)
	s.stats.WriteBytes.Add(uint64(len(val)))
	s.mu.Lock()
	s.m[key] = cp
	s.mu.Unlock()
	return nil
}

func (s *copyStore) update(_ router.Ctx, key string, f func(old []byte) []byte) ([]byte, error) {
	s.mu.Lock()
	old := s.m[key]
	// The copy out and copy back in are both real costs of the boundary.
	s.stats.ReadBytes.Add(uint64(len(old)))
	next := f(append([]byte(nil), old...))
	s.stats.WriteBytes.Add(uint64(len(next)))
	s.m[key] = append([]byte(nil), next...)
	s.mu.Unlock()
	return next, nil
}

// RegisterSocialLive deploys the social graph as live functions over the
// shared-state tier under the "social." prefix.
func RegisterSocialLive(reg *router.Registry) {
	registerSocialBodies(reg, "social.", sharedStore{})
}

// RegisterSocialCopy deploys the identical bodies over the copy-per-request
// baseline under the "socialcopy." prefix and returns its copy counters.
func RegisterSocialCopy(reg *router.Registry) *CopyStats {
	stats := &CopyStats{}
	registerSocialBodies(reg, "socialcopy.", &copyStore{m: make(map[string][]byte), stats: stats})
	return stats
}

// Key layout (all node-global: the graph is shared by every function):
//
//	sg:flw:<user>  newline list of users <user> follows
//	sg:fan:<user>  newline list of <user>'s followers (the fan-out set)
//	cnt:<user>     decimal post counter (post-id allocator)
//	post:<id>      post body; id = <user>/<n>
//	tl:<user>      newline list of post ids, newest first, capped
//	prof:<user>    profile blob (read-mostly; promotes under read load)

func registerSocialBodies(reg *router.Registry, prefix string, st socialStore) {
	reg.MustRegister(prefix+"follow", func(ctx router.Ctx) ([]byte, error) {
		user, followee, err := twoFields(ctx.Payload())
		if err != nil {
			return nil, err
		}
		// Both graph directions, each an exclusive-ownership RMW of exactly
		// one key. No cross-key transaction: the social graph tolerates the
		// one-sided window (DeathStarBench updates the two Redis sets
		// independently too).
		if _, err := st.update(ctx, "sg:flw:"+user, func(old []byte) []byte {
			return addLine(old, followee)
		}); err != nil {
			return nil, err
		}
		if _, err := st.update(ctx, "sg:fan:"+followee, func(old []byte) []byte {
			return addLine(old, user)
		}); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	})

	reg.MustRegister(prefix+"post", func(ctx router.Ctx) ([]byte, error) {
		user, text, err := twoFields(ctx.Payload()) // text = rest of payload
		if err != nil {
			return nil, err
		}
		// Allocate the post id from the author's counter (exclusive RMW).
		cnt, err := st.update(ctx, "cnt:"+user, func(old []byte) []byte {
			n, _ := strconv.ParseUint(string(old), 10, 64)
			return strconv.AppendUint(nil, n+1, 10)
		})
		if err != nil {
			return nil, err
		}
		id := user + "/" + string(cnt)
		if err := st.write(ctx, "post:"+id, []byte(text)); err != nil {
			return nil, err
		}
		// Fan out: the author's own timeline plus every follower's. The
		// follower set is a read snapshot, released before the timeline
		// updates (an invocation may not Take a key it holds a snapshot of —
		// and more to the point, holding it longer than needed pins a
		// permission slot).
		fans, ok, release, err := st.read(ctx, "sg:fan:"+user)
		if err != nil {
			return nil, err
		}
		targets := []string{user}
		if ok {
			for _, f := range strings.Fields(string(fans)) {
				if f != user {
					targets = append(targets, f)
				}
			}
		}
		if release != nil {
			release()
		}
		for _, t := range targets {
			if _, err := st.update(ctx, "tl:"+t, func(old []byte) []byte {
				return prependLine(old, id, timelineCap)
			}); err != nil {
				return nil, err
			}
		}
		return []byte(id), nil
	})

	reg.MustRegister(prefix+"timeline", func(ctx router.Ctx) ([]byte, error) {
		user := strings.TrimSpace(string(ctx.Payload()))
		if user == "" {
			return nil, fmt.Errorf("social: timeline wants a user name")
		}
		tl, ok, release, err := st.read(ctx, "tl:"+user)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		ids := strings.Fields(string(tl))
		if release != nil {
			release()
		}
		if len(ids) > feedPosts {
			ids = ids[:feedPosts]
		}
		// Resolve each post: the read-heavy inner loop the zero-copy
		// snapshot path exists for.
		var feed strings.Builder
		for _, id := range ids {
			body, ok, release, err := st.read(ctx, "post:"+id)
			if err != nil {
				return nil, err
			}
			if ok {
				feed.WriteString(id)
				feed.WriteByte(' ')
				feed.Write(body)
				feed.WriteByte('\n')
			}
			if release != nil {
				release()
			}
		}
		return []byte(feed.String()), nil
	})

	reg.MustRegister(prefix+"read", func(ctx router.Ctx) ([]byte, error) {
		id := strings.TrimSpace(string(ctx.Payload()))
		body, ok, release, err := st.read(ctx, "post:"+id)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		// The result must outlive the body (it becomes the response ArgBuf),
		// so it is copied out of the snapshot alias — both variants pay this
		// equally; the store-boundary copy is what differs.
		out := append([]byte(nil), body...)
		if release != nil {
			release()
		}
		return out, nil
	})

	reg.MustRegister(prefix+"profile", func(ctx router.Ctx) ([]byte, error) {
		user := strings.TrimSpace(string(ctx.Payload()))
		if user == "" {
			return nil, fmt.Errorf("social: profile wants a user name")
		}
		for {
			prof, ok, release, err := st.read(ctx, "prof:"+user)
			if err != nil {
				return nil, err
			}
			if ok {
				out := append([]byte(nil), prof...)
				if release != nil {
					release()
				}
				return out, nil
			}
			// First sight of this user: materialize a default profile, then
			// reread (a racing creator may have won; either value is fine).
			if err := st.write(ctx, "prof:"+user, []byte("name="+user+" joined=2026 bio=jord")); err != nil {
				return nil, err
			}
		}
	})
}

// twoFields splits "<first> <rest...>"; rest keeps its internal spacing.
func twoFields(payload []byte) (first, rest string, err error) {
	s := strings.TrimSpace(string(payload))
	i := strings.IndexByte(s, ' ')
	if i < 0 {
		return "", "", fmt.Errorf("social: payload %q wants two fields", s)
	}
	return s[:i], strings.TrimSpace(s[i+1:]), nil
}

// addLine appends line to a newline-separated set if absent.
func addLine(old []byte, line string) []byte {
	for _, l := range strings.Fields(string(old)) {
		if l == line {
			return old
		}
	}
	out := make([]byte, 0, len(old)+len(line)+1)
	out = append(out, old...)
	if len(out) > 0 && out[len(out)-1] != '\n' {
		out = append(out, '\n')
	}
	out = append(out, line...)
	return out
}

// prependLine pushes line onto a newline list, newest first, capped at max.
func prependLine(old []byte, line string, max int) []byte {
	lines := strings.Fields(string(old))
	out := make([]byte, 0, len(old)+len(line)+1)
	out = append(out, line...)
	for i, l := range lines {
		if i >= max-1 {
			break
		}
		out = append(out, '\n')
		out = append(out, l...)
	}
	return out
}
