package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
)

// Social-tier constants mirrored from the workload it drives
// (internal/workloads/social_live.go and jordload -mix social).
const (
	socialUsers = 64  // jordload -users default
	socialSkew  = 1.2 // Zipf exponent of the user draw
	timelineCap = 32  // entries a timeline keeps
	feedPosts   = 10  // posts social.timeline resolves per request
)

// payloadBytes is the echo and nested payload size.
const payloadBytes = 64

// streamLen is the number of distinct requests each connection cycles
// through. It is large enough that the op mix over one cycle is within a
// percent of its target shares.
const streamLen = 4096

// checkKind is how a reply body is checked against a request's want.
type checkKind uint8

const (
	checkExact  checkKind = iota // body == want
	checkPrefix                  // body starts with want
	checkLines                   // body holds exactly lines newline-ended lines
)

// request is one prebuilt invocation of a workload stream.
type request struct {
	op      int // index into workload.ops
	payload []byte
	wire    []byte // the HTTP request bytes
	check   checkKind
	want    []byte
	lines   int
}

// ok reports whether body is the correct reply to r.
func (r *request) ok(body []byte) bool {
	switch r.check {
	case checkPrefix:
		return bytes.HasPrefix(body, r.want)
	case checkLines:
		return bytes.Count(body, []byte{'\n'}) == r.lines
	default:
		return bytes.Equal(body, r.want)
	}
}

// workload is one named traffic mix.
type workload struct {
	name string
	// viaCluster routes the client through the dispatcher; otherwise the
	// client talks to a single worker's edge directly.
	viaCluster bool
	// procs is the run's GOMAXPROCS and conns its closed-loop client
	// count, one goroutine per keep-alive connection; README.md says why
	// they differ between workloads.
	procs, conns int
	ops          []string  // function names; request.op indexes this
	shares       []float64 // share of each op in every stream, exactly
	gen          func(rng *rand.Rand, zipf *rand.Zipf, op int) request
}

// allWorkloads are the benchmark's traffic mixes; README.md says why each
// is there.
var allWorkloads = []*workload{
	{
		name:       "cluster_echo",
		viaCluster: true,
		procs:      1,
		conns:      1,
		ops:        []string{"echo"},
		shares:     []float64{1},
		gen:        genEcho,
	},
	{
		name:   "edge_nested",
		procs:  1,
		conns:  1,
		ops:    []string{"chain", "fanout2"},
		shares: []float64{0.5, 0.5},
		gen:    genEcho,
	},
	{
		name:   "edge_social",
		procs:  2,
		conns:  2,
		ops:    []string{"social.timeline", "social.post", "social.follow", "social.profile"},
		shares: []float64{0.60, 0.25, 0.10, 0.05},
		gen:    genSocial,
	},
}

func findWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func randPayload(rng *rand.Rand) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	p := make([]byte, payloadBytes)
	for i := range p {
		p[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return p
}

func user(i uint64) string { return "u" + strconv.FormatUint(i, 10) }

// profileBody is the default profile social.profile materializes.
func profileBody(u string) []byte { return []byte("name=" + u + " joined=2026 bio=jord") }

// genEcho builds a request whose reply is its own payload: echo, and the
// nested functions, which return their leaf's echo.
func genEcho(rng *rand.Rand, _ *rand.Zipf, op int) request {
	p := randPayload(rng)
	return request{op: op, payload: p, want: p}
}

// genSocial builds one request of the social mix the way jordload -mix
// social draws it: a Zipf-skewed user; a follow's second user redraws flat
// until it differs from the first.
func genSocial(rng *rand.Rand, zipf *rand.Zipf, op int) request {
	u := user(zipf.Uint64())
	switch op {
	case 0:
		// Seeded timelines hold timelineCap >= feedPosts posts, so every
		// feed resolves exactly feedPosts lines.
		return request{op: 0, payload: []byte(u), check: checkLines, lines: feedPosts}
	case 1:
		text := fmt.Sprintf("%s musing %d about single-address-space serverless", u, rng.Intn(1_000_000))
		return request{op: 1, payload: []byte(text), check: checkPrefix, want: []byte(u + "/")}
	case 2:
		v := user(zipf.Uint64())
		for v == u {
			v = user(uint64(rng.Intn(socialUsers)))
		}
		return request{op: 2, payload: []byte(u + " " + v), want: []byte("ok")}
	default:
		return request{op: 3, payload: []byte(u), want: profileBody(u)}
	}
}

// streams builds one request stream per connection from seed. The same
// seed gives byte-identical streams. Each stream holds every op in exactly
// its share, in seeded order, so the mix itself does not vary by seed.
func (w *workload) streams(seed int64, conns int) [][]request {
	out := make([][]request, conns)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		zipf := rand.NewZipf(rng, socialSkew, 1, socialUsers-1)
		deck := make([]int, 0, streamLen)
		for op, share := range w.shares {
			n := int(share*streamLen + 0.5)
			if op == len(w.shares)-1 {
				n = streamLen - len(deck)
			}
			for range n {
				deck = append(deck, op)
			}
		}
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		s := make([]request, streamLen)
		for i, op := range deck {
			s[i] = w.gen(rng, zipf, op)
			s[i].wire = buildRequest(w.ops[op], s[i].payload, "")
		}
		out[c] = s
	}
	return out
}
