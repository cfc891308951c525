package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"jord/internal/cluster"
	"jord/internal/server/gateway"
	"jord/internal/server/pool"
	"jord/internal/server/state"
	"jord/internal/server/trace"
)

// traceRounds is how many traced windows alternate with untraced ones to
// measure the tracing overhead; the order flips each round so drift on a
// shared machine hits both alike.
const traceRounds = 4

// socialOps are the per-function metric suffixes; every workload reports
// them (0 where the function is not in its mix).
var socialOps = []string{"social.timeline", "social.post", "social.follow", "social.profile"}

// layerSnap is the program's own counters at one instant, summed over
// workers: the always-on trace stage histograms, the gateway and pool
// counters of /statsz, the state tier, the dispatcher's /statsz and the Go
// runtime.
type layerSnap struct {
	stages       [trace.NumStages]trace.StageHist
	gw           gateway.Statsz
	st           state.Stats
	disp         cluster.Statsz
	mem          runtime.MemStats
	dedupEntries int
}

func snapLayers(r *rig) (layerSnap, error) {
	var s layerSnap
	for _, d := range r.daemons {
		hs := d.Pool().Trace().StageHists()
		for i := range hs {
			s.stages[i].Stage = hs[i].Stage
			s.stages[i].Count += hs[i].Count
			s.stages[i].SumNS += hs[i].SumNS
		}
		g := d.Gateway().Snapshot()
		s.gw.Rejected += g.Rejected
		s.gw.PoolCompleted += g.PoolCompleted
		s.gw.PoolShed += g.PoolShed
		s.gw.PoolRejected += g.PoolRejected
		if g.State != nil {
			s.st.Gets += g.State.Gets
			s.st.FastGets += g.State.FastGets
			s.st.Takes += g.State.Takes
			s.st.Commits += g.State.Commits
			s.st.Entries += g.State.Entries
			s.st.Bytes += g.State.Bytes
		}
		if dc := d.Gateway().Dedup; dc != nil {
			s.dedupEntries += dc.Len()
		}
	}
	if r.disp != nil {
		doc, err := dispatcherStatsz(r.addr)
		if err != nil {
			return s, err
		}
		s.disp = doc
	}
	runtime.ReadMemStats(&s.mem)
	return s, nil
}

// layerDelta accumulates counter deltas over the traced windows.
type layerDelta struct {
	stageNS, stageN       [trace.NumStages]float64
	rejected, completed   float64
	shed, poolRejected    float64
	gets, fastGets        float64
	takes, commits        float64
	retries, dispRejected float64
	perWorker             map[string]float64
	gcs, pauseNS, allocB  float64
	mallocs               float64
}

func (d *layerDelta) add(a, b *layerSnap) {
	for i := range a.stages {
		d.stageNS[i] += float64(b.stages[i].SumNS - a.stages[i].SumNS)
		d.stageN[i] += float64(b.stages[i].Count - a.stages[i].Count)
	}
	d.rejected += float64(b.gw.Rejected - a.gw.Rejected)
	d.completed += float64(b.gw.PoolCompleted - a.gw.PoolCompleted)
	d.shed += float64(b.gw.PoolShed - a.gw.PoolShed)
	d.poolRejected += float64(b.gw.PoolRejected - a.gw.PoolRejected)
	d.gets += float64(b.st.Gets - a.st.Gets)
	d.fastGets += float64(b.st.FastGets - a.st.FastGets)
	d.takes += float64(b.st.Takes - a.st.Takes)
	d.commits += float64(b.st.Commits - a.st.Commits)
	d.retries += float64(dispRetries(&b.disp) - dispRetries(&a.disp))
	d.dispRejected += float64(dispRejected(&b.disp) - dispRejected(&a.disp))
	if d.perWorker == nil {
		d.perWorker = map[string]float64{}
	}
	before := map[string]uint64{}
	for _, ws := range a.disp.WorkerState {
		before[ws.Addr] = ws.Dispatched
	}
	for _, ws := range b.disp.WorkerState {
		d.perWorker[ws.Addr] += float64(ws.Dispatched - before[ws.Addr])
	}
	d.gcs += float64(b.mem.NumGC - a.mem.NumGC)
	d.pauseNS += float64(b.mem.PauseTotalNs - a.mem.PauseTotalNs)
	d.allocB += float64(b.mem.TotalAlloc - a.mem.TotalAlloc)
	d.mallocs += float64(b.mem.Mallocs - a.mem.Mallocs)
}

func dispRetries(s *cluster.Statsz) uint64 {
	return s.ErrRetries + s.DrainRetries + s.UnsafeRetries
}

func dispRejected(s *cluster.Statsz) uint64 {
	return s.RejectedSaturated + s.RejectedNoWorkers + s.Exhausted + s.Passthrough
}

// stageMeanUS is a stage's mean duration per occurrence.
func (d *layerDelta) stageMeanUS(st trace.Stage) float64 {
	if d.stageN[st] == 0 {
		return 0
	}
	return d.stageNS[st] / d.stageN[st] / 1e3
}

// imbalance is max/min of per-worker dispatched counts (1 = even; 0 when
// there is no dispatcher).
func (d *layerDelta) imbalance() float64 {
	lo, hi := -1.0, 0.0
	for _, n := range d.perWorker {
		if lo < 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if lo <= 0 {
		return 0
	}
	return hi / lo
}

// measureLayers is the traced run. It alternates traced and untraced
// windows of the workload (the traced ones bracketed by counter snapshots
// of every layer), then times the layers beneath the client's entry point
// from outside: the same keyed requests sent straight to a worker edge
// (cluster workloads), and Pool.Invoke called in process on the same
// request stream.
func measureLayers(r *rig, w *workload, seed int64, callers []*caller, dur time.Duration) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	count := func(t tally) {
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.Correct = res.Correct && t.wrong == 0
	}

	// Two thirds of the run alternate traced and untraced windows; the
	// direct-to-worker and Pool.Invoke phases share the last third.
	slice := dur / (3 * traceRounds)
	var (
		delta                layerDelta
		tracedOK, untracedOK uint64
		tracedT, untracedT   time.Duration
		samples              []*caller // copies of the traced windows' tallies
	)
	for round := 0; round < traceRounds; round++ {
		for i := 0; i < 2; i++ {
			traced := (round+i)%2 == 0
			if err := r.trim(w); err != nil {
				return nil, err
			}
			if !traced {
				untracedT += window(callers, slice)
				t := sumCallers(callers, len(w.ops))
				untracedOK += t.ok
				count(t)
				resetCallers(callers)
				continue
			}
			a, err := snapLayers(r)
			if err != nil {
				return nil, err
			}
			tracedT += window(callers, slice)
			b, err := snapLayers(r)
			if err != nil {
				return nil, err
			}
			delta.add(&a, &b)
			t := sumCallers(callers, len(w.ops))
			tracedOK += t.ok
			count(t)
			logFailures("traced window", w, t)
			samples = append(samples, detach(callers)...)
			resetCallers(callers)
		}
	}
	end, err := snapLayers(r)
	if err != nil {
		return nil, err
	}

	tt := sumCallers(samples, len(w.ops))
	reqs := float64(tt.attempted)
	lat := latencies(samples, -1)
	l := ledger{rttUS: meanOKUS(lat)}
	put("client.rtt_us_mean", "us", l.rttUS)
	// The tail diagnostics are over successful requests; failures sort
	// last as infinitely slow.
	okLat := lat[:sort.Search(len(lat), func(i int) bool { return lat[i] == failedLatency })]
	put("client.lat_p99_us", "us", quantileUS(okLat, 0.99))
	put("client.lat_p999_us", "us", quantileUS(okLat, 0.999))

	// The worker edge's RTT: the traced windows themselves on edge
	// workloads; on cluster workloads, keyed requests sent straight to the
	// first worker, so the worker takes the same cold, deduplicated path
	// it takes behind the dispatcher.
	edgeRTT := l.rttUS
	if r.disp != nil {
		direct, t, err := directWindow(r.addrs[0], w, seed, dur/6)
		if err != nil {
			return nil, err
		}
		count(t)
		edgeRTT = direct
		l.clusterHopUS = l.rttUS - direct
	}
	// Pool.Invoke in process on the same stream, bracketed by the first
	// worker's stage counters so the ledger compares the Invoke span with
	// the stage spans recorded inside it.
	if err := r.trim(w); err != nil {
		return nil, err
	}
	pa, err := snapLayers(r)
	if err != nil {
		return nil, err
	}
	invokeUS, t := invokeWindow(r.daemons[0].Pool(), w, w.streams(seed, w.conns), dur/6)
	pb, err := snapLayers(r)
	if err != nil {
		return nil, err
	}
	count(t)
	var inv layerDelta
	inv.add(&pa, &pb)
	for _, st := range poolStages {
		l.stageUS[st] = inv.stageNS[st] / float64(t.attempted) / 1e3
	}
	l.gatewayHopUS = edgeRTT - invokeUS

	put("cluster.hop_us_mean", "us", l.clusterHopUS)
	put("cluster.retries_per_req", "count", delta.retries/reqs)
	put("cluster.rejected_per_req", "count", delta.dispRejected/reqs)
	put("cluster.imbalance", "ratio", delta.imbalance())

	put("gateway.hop_us_mean", "us", l.gatewayHopUS)
	put("gateway.parse_us_mean", "us", delta.stageMeanUS(trace.StageParse))
	put("gateway.resp_us_mean", "us", delta.stageMeanUS(trace.StageResp))
	put("gateway.dedup_entries", "count", float64(end.dedupEntries))
	put("gateway.rejected_per_req", "count", delta.rejected/reqs)
	put("admission.admit_us_mean", "us", delta.stageMeanUS(trace.StageAdmit))

	put("pool.invoke_us_mean", "us", invokeUS)
	put("pool.invocations_per_req", "count", delta.completed/reqs)
	for _, st := range []trace.Stage{trace.StageQueue, trace.StageInit, trace.StageExec, trace.StageTeardown, trace.StageWait} {
		put("pool."+st.Name()+"_us_per_req", "us", delta.stageNS[st]/reqs/1e3)
	}
	put("pool.shed_per_req", "count", delta.shed/reqs)
	put("pool.rejected_per_req", "count", delta.poolRejected/reqs)

	put("state.op_us_per_req", "us", delta.stageNS[trace.StageState]/reqs/1e3)
	put("state.gets_per_req", "count", delta.gets/reqs)
	put("state.takes_per_req", "count", delta.takes/reqs)
	put("state.commits_per_req", "count", delta.commits/reqs)
	fast := 0.0
	if delta.gets > 0 {
		fast = delta.fastGets / delta.gets
	}
	put("state.fast_get_share", "ratio", fast)
	put("state.entries_end", "count", float64(end.st.Entries))
	put("state.bytes_end", "bytes", float64(end.st.Bytes))

	for _, fn := range socialOps {
		p50, share := 0.0, 0.0
		for i, op := range w.ops {
			if op == fn {
				p50 = quantileUS(latencies(samples, i), 0.50)
				if tt.opAttempted[i] > 0 {
					share = float64(tt.opConflicts[i]) / float64(tt.opAttempted[i])
				}
			}
		}
		put("workloads.lat_p50_us."+fn, "us", p50)
		put("workloads.conflicts_per_req."+fn, "count", share)
	}

	put("go.gc_per_1k_req", "count", delta.gcs/reqs*1000)
	put("go.gc_pause_us_per_req", "us", delta.pauseNS/reqs/1e3)
	put("go.bytes_per_req", "bytes", delta.allocB/reqs)
	put("go.allocs_per_req", "count", delta.mallocs/reqs)

	put("ledger.residual_pct", "%", l.residualPct())
	put("ledger.trace_overhead_pct", "%",
		100*(float64(untracedOK)/untracedT.Seconds()/(float64(tracedOK)/tracedT.Seconds())-1))
	return res, nil
}

// detach copies the callers' tallies and latencies so the callers can be
// reset and reused.
func detach(callers []*caller) []*caller {
	out := make([]*caller, len(callers))
	for i, cl := range callers {
		cp := *cl
		cp.opAttempted = append([]uint64(nil), cl.opAttempted...)
		cp.opFailed = append([]uint64(nil), cl.opFailed...)
		cp.opConflicts = append([]uint64(nil), cl.opConflicts...)
		cp.lat = append([]int64(nil), cl.lat...)
		cp.latOp = append([]uint8(nil), cl.latOp...)
		cp.fails = append([]failure(nil), cl.fails...)
		cp.c = nil
		out[i] = &cp
	}
	return out
}

// directWindow sends the workload's stream straight to one worker edge,
// each request stamped with a fresh idempotency key, and returns the mean
// RTT of the successful ones in µs.
func directWindow(addr string, w *workload, seed int64, d time.Duration) (float64, tally, error) {
	streams := w.streams(seed, w.conns)
	var callers []*caller
	defer func() { closeCallers(callers) }()
	for ci, s := range streams {
		c, err := dial(addr)
		if err != nil {
			return 0, tally{}, err
		}
		cl := newCaller(c, s, len(w.ops), int(d.Seconds()+1)*maxCallerRPS)
		cl.keyAt = keyStream(s, w.ops, fmt.Sprintf("perfbench-%d-%d-", seed, ci))
		callers = append(callers, cl)
	}
	window(callers, d)
	t := sumCallers(callers, len(w.ops))
	logFailures("direct window", w, t)
	return meanOKUS(latencies(callers, -1)), t, nil
}

// invokeWindow calls Pool.Invoke in process from one goroutine per stream
// for d and returns the mean duration of successful invocations in µs.
func invokeWindow(p *pool.Pool, w *workload, streams [][]request, d time.Duration) (float64, tally) {
	t := newTally(len(w.ops))
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		sumNS   float64
		okCount uint64
	)
	deadline := time.Now().Add(d)
	for _, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := newTally(len(w.ops))
			var ns float64
			for i := 0; time.Now().Before(deadline); i = (i + 1) % len(s) {
				r := &s[i]
				local.attempted++
				local.opAttempted[r.op]++
				t0 := time.Now()
				out, err := p.Invoke(context.Background(), w.ops[r.op], r.payload)
				for try := 0; try < maxConflictRetries && errors.Is(err, state.ErrTaken); try++ {
					local.conflicts++
					local.opConflicts[r.op]++
					out, err = p.Invoke(context.Background(), w.ops[r.op], r.payload)
				}
				el := time.Since(t0)
				switch {
				case err != nil:
					local.failed++
					local.opFailed[r.op]++
					if len(local.fails) < maxFailureLog {
						local.fails = append(local.fails, failure{op: r.op, msg: err.Error()})
					}
				case !r.ok(out):
					local.failed++
					local.wrong++
					local.opFailed[r.op]++
				default:
					local.ok++
					ns += float64(el)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			sumNS += ns
			okCount += local.ok
			t.add(local)
		}()
	}
	wg.Wait()
	logFailures("Pool.Invoke window", w, t)
	if okCount == 0 {
		return 0, t
	}
	return sumNS / float64(okCount) / 1e3, t
}

// keyStream rebuilds every request of s with an idempotency-key header,
// prefix followed by keyDigits zeros, and returns the offset of those
// digits, which a caller rewrites before each send. The payloads must all
// have one length, so the digits sit at one offset in every request: just
// before the blank line and the payload.
func keyStream(s []request, ops []string, prefix string) int {
	hdr := fmt.Sprintf("%s: %s%0*d", gateway.IdempotencyKeyHeader, prefix, keyDigits, 0)
	for i := range s {
		s[i].wire = buildRequest(ops[s[i].op], s[i].payload, hdr)
	}
	return len(s[0].wire) - len(s[0].payload) - len("\r\n\r\n") - keyDigits
}
