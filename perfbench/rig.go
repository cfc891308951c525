package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"jord/internal/cluster"
	"jord/internal/server"
	"jord/internal/server/pool"
	"jord/internal/server/router"
	"jord/internal/server/state"
	"jord/internal/workloads"
)

// clusterWorkers is the worker count behind the dispatcher: two, so JBSQ
// placement has a real choice, with one executor each so the pair fits the
// two-CPU box the benchmark was written on.
const clusterWorkers = 2

// rig is one running system under test: worker daemons on loopback and,
// for cluster workloads, a dispatcher with its net/http front over them.
type rig struct {
	daemons []*server.Daemon
	serveCh []chan error
	addrs   []string // worker edge addresses

	disp      *cluster.Dispatcher
	front     *http.Server
	frontDone chan error

	addr string // where the workload's client connects
}

// startRig builds and starts the system for w. It returns once every
// component is listening; readiness is the caller's first 200.
func startRig(w *workload) (*rig, error) {
	r := &rig{}
	n := 1
	if w.viaCluster {
		n = clusterWorkers
	}
	for i := 0; i < n; i++ {
		cfg := server.Config{Edge: true}
		if w.viaCluster {
			cfg.Pool = pool.Config{Executors: 1}
		}
		d := server.New(cfg)
		registerFuncs(d, w)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.stop()
			return nil, err
		}
		ch := make(chan error, 1)
		go func() { ch <- d.Serve(ln) }()
		r.daemons = append(r.daemons, d)
		r.serveCh = append(r.serveCh, ch)
		r.addrs = append(r.addrs, ln.Addr().String())
	}
	r.addr = r.addrs[0]
	if !w.viaCluster {
		return r, nil
	}

	r.disp = cluster.New(cluster.Config{Workers: r.addrs})
	r.disp.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.stop()
		return nil, err
	}
	r.front = &http.Server{Handler: r.disp.Handler()}
	r.frontDone = make(chan error, 1)
	go func() { r.frontDone <- r.front.Serve(ln) }()
	r.addr = ln.Addr().String()
	return r, nil
}

func registerFuncs(d *server.Daemon, w *workload) {
	switch w.name {
	case "cluster_echo":
		d.MustRegister("echo", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Payload(), nil
		})
	case "edge_nested":
		d.MustRegister("leaf", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Payload(), nil
		})
		d.MustRegister("chain", func(ctx router.Ctx) ([]byte, error) {
			return ctx.Call("leaf", ctx.Payload())
		})
		d.MustRegister("fanout2", func(ctx router.Ctx) ([]byte, error) {
			ck1, err := ctx.Async("leaf", ctx.Payload())
			if err != nil {
				return nil, err
			}
			ck2, err := ctx.Async("leaf", ctx.Payload())
			if err != nil {
				return nil, err
			}
			if _, err := ctx.Wait(ck1); err != nil {
				return nil, err
			}
			return ctx.Wait(ck2)
		})
	case "edge_social":
		workloads.RegisterSocialLive(d.Reg)
		d.MustRegister(trimFunc, newTrim())
	}
}

// trimFunc is the benchmark's own retention function on edge_social.
const trimFunc = "perfbench.trim"

// trimKeep is how many of each user's newest posts a trim keeps. With the
// complete follow graph every timeline holds the newest timelineCap posts
// of all users, so an older post is referenced by no timeline; the other
// timelineCap are margin for fan-outs that finished out of order.
const trimKeep = 2 * timelineCap

// newTrim returns a function body that deletes every post older than each
// user's newest trimKeep. Every social.post adds a key no request of the
// mix reads again once it falls off the timelines; without the trim the
// store, the heap and the cost per request grow for as long as a run
// lasts. Runs between measured windows, never inside one.
func newTrim() router.Body {
	var trimmed [socialUsers]uint64 // posts of each user already deleted
	return func(ctx router.Ctx) ([]byte, error) {
		for i := range trimmed {
			u := user(uint64(i))
			sn, err := ctx.StateGet(router.StateGlobal, "cnt:"+u)
			if errors.Is(err, state.ErrNotFound) {
				continue
			}
			if err != nil {
				return nil, err
			}
			n, perr := strconv.ParseUint(string(sn.Bytes()), 10, 64)
			sn.Release()
			if perr != nil {
				return nil, fmt.Errorf("trim: counter of %s: %w", u, perr)
			}
			for ; trimmed[i]+trimKeep < n; trimmed[i]++ {
				key := "post:" + u + "/" + strconv.FormatUint(trimmed[i]+1, 10)
				if err := ctx.StateDelete(router.StateGlobal, key); err != nil && !errors.Is(err, state.ErrNotFound) {
					return nil, err
				}
			}
		}
		return nil, nil
	}
}

// trim runs the workload's retention function, if it has one.
func (r *rig) trim(w *workload) error {
	if w.name != "edge_social" {
		return nil
	}
	_, err := r.daemons[0].Pool().Invoke(context.Background(), trimFunc, nil)
	return err
}

// stop shuts the rig down and waits for every serving goroutine.
func (r *rig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if r.front != nil {
		_ = r.front.Shutdown(ctx)
		<-r.frontDone
	}
	if r.disp != nil {
		r.disp.Stop()
	}
	for i, d := range r.daemons {
		_ = d.Shutdown(ctx)
		<-r.serveCh[i]
	}
}

// probeRequest is the first request of a cold start: a read-only call of
// the workload's first function, so it leaves no state behind.
func probeRequest(w *workload) []byte {
	payload := []byte("u0")
	if w.name != "edge_social" {
		payload = []byte("probe")
	}
	return buildRequest(w.ops[0], payload, "")
}

// coldStart times one set-up: from the first constructor call until the
// workload's first invocation answers 200.
func coldStart(w *workload) (*rig, time.Duration, error) {
	t0 := time.Now()
	r, err := startRig(w)
	if err != nil {
		return nil, 0, err
	}
	c, err := dial(r.addr)
	if err != nil {
		r.stop()
		return nil, 0, err
	}
	defer c.close()
	req := probeRequest(w)
	for {
		status, _, keepAlive, err := c.roundtrip(req)
		if err == nil && status == http.StatusOK {
			return r, time.Since(t0), nil
		}
		if time.Since(t0) > 10*time.Second {
			r.stop()
			return nil, 0, fmt.Errorf("cold start: no 200 within 10s (status %d, err %v)", status, err)
		}
		if err != nil || !keepAlive {
			if err := c.redial(); err != nil {
				r.stop()
				return nil, 0, err
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// setUp cold-starts the rig runs times, keeps the last one running and
// returns the median set-up time in seconds.
func setUp(w *workload, runs int) (*rig, float64, error) {
	var times []float64
	for i := 0; i < runs; i++ {
		r, d, err := coldStart(w)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if i < runs-1 {
			r.stop()
			continue
		}
		return r, median(times), nil
	}
	panic("unreachable")
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// seedSocial puts the social store into its steady state through the
// workload's own functions: every profile created, the complete follow
// graph (the fixed point of the mix's follows, which then change nothing),
// and timelineCap posts, which with the complete graph fill every timeline
// to its cap. The result is the same in every run.
func seedSocial(addr string) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	call := func(fn, payload string) error {
		status, body, _, err := c.roundtrip(buildRequest(fn, []byte(payload), ""))
		if err != nil {
			return fmt.Errorf("seeding %s %q: %w", fn, payload, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("seeding %s %q: status %d: %s", fn, payload, status, firstLine(body))
		}
		return nil
	}
	for i := uint64(0); i < socialUsers; i++ {
		if err := call("social.profile", user(i)); err != nil {
			return err
		}
	}
	for i := uint64(0); i < socialUsers; i++ {
		for j := uint64(0); j < socialUsers; j++ {
			if i == j {
				continue
			}
			if err := call("social.follow", user(i)+" "+user(j)); err != nil {
				return err
			}
		}
	}
	for k := 0; k < timelineCap; k++ {
		u := user(uint64(k % socialUsers))
		if err := call("social.post", u+" seed post "+strconv.Itoa(k)); err != nil {
			return err
		}
	}
	return nil
}

// dispatcherStatsz reads the dispatcher's /statsz through its front.
func dispatcherStatsz(addr string) (cluster.Statsz, error) {
	var doc cluster.Statsz
	resp, err := http.Get("http://" + addr + "/statsz")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("dispatcher /statsz: status %d", resp.StatusCode)
	}
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}
