package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"jord/internal/server/gateway"
)

func TestStreamsAreReproducible(t *testing.T) {
	for _, w := range allWorkloads {
		a, b := w.streams(7, 2), w.streams(7, 2)
		other := w.streams(8, 2)
		same := true
		for c := range a {
			for i := range a[c] {
				if !bytes.Equal(a[c][i].wire, b[c][i].wire) {
					t.Fatalf("%s: seed 7 conn %d request %d differs between builds", w.name, c, i)
				}
				same = same && bytes.Equal(a[c][i].wire, other[c][i].wire)
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 built identical streams", w.name)
		}
		if bytes.Equal(a[0][0].wire, a[1][0].wire) && bytes.Equal(a[0][1].wire, a[1][1].wire) {
			t.Errorf("%s: both connections send the same stream", w.name)
		}
	}
}

func TestStreamOpShares(t *testing.T) {
	// Every stream holds each op in its share to within one request, so
	// the mix does not vary by seed.
	for _, w := range allWorkloads {
		for seed := int64(1); seed <= 3; seed++ {
			for c, s := range w.streams(seed, 2) {
				counts := make([]float64, len(w.ops))
				for _, r := range s {
					counts[r.op]++
				}
				for i, op := range w.ops {
					if want := w.shares[i] * streamLen; math.Abs(counts[i]-want) > 1 {
						t.Errorf("%s seed %d conn %d: %v %s requests, want %.1f", w.name, seed, c, counts[i], op, want)
					}
				}
			}
		}
	}
}

func TestSocialRequestsAreWellFormed(t *testing.T) {
	w := findWorkload("edge_social")
	hot := 0
	n := 0
	for _, s := range w.streams(1, 2) {
		for _, r := range s {
			n++
			fields := strings.Fields(string(r.payload))
			if fields[0] == "u0" {
				hot++
			}
			switch w.ops[r.op] {
			case "social.follow":
				if len(fields) != 2 || fields[0] == fields[1] {
					t.Fatalf("follow %q: want two distinct users", r.payload)
				}
			case "social.timeline":
				if r.check != checkLines || r.lines != feedPosts {
					t.Fatalf("timeline %q: want a %d-line check", r.payload, feedPosts)
				}
			}
			if !strings.HasPrefix(string(r.wire), "POST /invoke/"+w.ops[r.op]+" HTTP/1.1\r\n") || !bytes.HasSuffix(r.wire, r.payload) {
				t.Fatalf("request %q does not invoke %s with its payload", r.wire, w.ops[r.op])
			}
		}
	}
	// Zipf(1.2) over 64 users puts ~30% of draws on the hottest user; a
	// flat draw would put under 2% there.
	if share := float64(hot) / float64(n); share < 0.2 || share > 0.4 {
		t.Errorf("hottest user's share %.3f, want the Zipf(1.2) skew (~0.3)", share)
	}
}

func TestRequestChecks(t *testing.T) {
	cases := []struct {
		r    request
		body string
		ok   bool
	}{
		{request{want: []byte("abc")}, "abc", true},
		{request{want: []byte("abc")}, "abcd", false},
		{request{check: checkPrefix, want: []byte("u3/")}, "u3/17", true},
		{request{check: checkPrefix, want: []byte("u3/")}, "u31/17", false},
		{request{check: checkLines, lines: 2}, "a x\nb y\n", true},
		{request{check: checkLines, lines: 2}, "a x\n", false},
	}
	for _, c := range cases {
		if got := c.r.ok([]byte(c.body)); got != c.ok {
			t.Errorf("check %d want %q on %q: %v, want %v", c.r.check, c.r.want, c.body, got, c.ok)
		}
	}
}

func TestKeyStreamRewritesTheKeyInPlace(t *testing.T) {
	w := findWorkload("cluster_echo")
	s := w.streams(1, 1)[0][:3]
	at := keyStream(s, w.ops, "perfbench-1-0-")
	for i := range s {
		putKey(s[i].wire[at:at+keyDigits], uint64(1234+i))
		want := gateway.IdempotencyKeyHeader + ": perfbench-1-0-" + "000000000000123" + string(rune('4'+i)) + "\r\n\r\n" + string(s[i].payload)
		if !strings.HasSuffix(string(s[i].wire), want) {
			t.Fatalf("request %d ends %q, want suffix %q", i, s[i].wire[len(s[i].wire)-120:], want)
		}
	}
}
