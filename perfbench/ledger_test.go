package main

import (
	"math"
	"slices"
	"sort"
	"testing"

	"jord/internal/server/trace"
)

// span is a synthetic timed interval [start, end).
type span struct{ start, end float64 }

func (s span) dur() float64 { return s.end - s.start }

// covered is the length of the union of children clipped to parent.
func covered(parent span, children []span) float64 {
	var cs []span
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	total, reach := 0.0, math.Inf(-1)
	for _, c := range cs {
		if c.start > reach {
			total += c.dur()
			reach = c.end
		} else if c.end > reach {
			total += c.end - reach
			reach = c.end
		}
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent span, children []span) float64 { return parent.dur() - covered(parent, children) }

// stageSpans is one invocation's worker stages, by trace stage.
type stageSpans map[trace.Stage]span

// measured turns synthetic spans into what the benchmark measures: means
// per request of the client RTT, the direct-to-worker RTT, the Pool.Invoke
// span and each stage summed over every invocation of the request.
func measured(client, worker, invoke span, invocations []stageSpans) ledger {
	l := ledger{rttUS: client.dur(), clusterHopUS: client.dur() - worker.dur(), gatewayHopUS: worker.dur() - invoke.dur()}
	for _, inv := range invocations {
		for st, s := range inv {
			l.stageUS[st] += s.dur()
		}
	}
	return l
}

func TestCoveredMergesOverlapsAndClips(t *testing.T) {
	parent := span{0, 100}
	got := covered(parent, []span{{10, 30}, {20, 40}, {50, 60}, {90, 120}, {-5, 2}})
	if want := 30.0 + 10 + 10 + 2; got != want {
		t.Fatalf("covered %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time of a leaf %v, want its duration", got)
	}
}

func TestLedgerSerialRequest(t *testing.T) {
	// Client -> dispatcher -> worker edge -> Pool.Invoke -> stages, with
	// 10 µs of Pool.Invoke outside every stage (hand-off and wake-up).
	client := span{0, 200}
	worker := span{40, 180}
	invoke := span{60, 160}
	stages := stageSpans{
		trace.StageQueue:    {60, 70},
		trace.StageInit:     {70, 72},
		trace.StageExec:     {72, 140},
		trace.StageTeardown: {140, 150},
	}
	l := measured(client, worker, invoke, []stageSpans{stages})

	var stageList []span
	for _, s := range stages {
		stageList = append(stageList, s)
	}
	// Each hop is the self time of its layer's span.
	if want := selfTime(client, []span{worker}); l.clusterHopUS != want {
		t.Errorf("cluster hop %v, want the dispatcher's self time %v", l.clusterHopUS, want)
	}
	if want := selfTime(worker, []span{invoke}); l.gatewayHopUS != want {
		t.Errorf("gateway hop %v, want the edge's self time %v", l.gatewayHopUS, want)
	}
	// The residual is exactly the pool's uncovered self time.
	poolSelf := selfTime(invoke, stageList)
	if want := 100 * poolSelf / client.dur(); math.Abs(l.residualPct()-want) > 1e-9 {
		t.Errorf("residual %v%%, want %v%%", l.residualPct(), want)
	}
	if l.residualPct() != 5 {
		t.Errorf("residual %v%%, want 5%%", l.residualPct())
	}
}

func TestLedgerParallelChildren(t *testing.T) {
	// fanout2 on the edge: the root waits while two leaves run partly in
	// parallel. wait is covered by the children and stays out of the sum;
	// the leaves' overlap is counted twice, so the residual falls by it.
	client := span{0, 150}
	invoke := span{20, 130}
	root := stageSpans{
		trace.StageQueue:    {20, 25},
		trace.StageInit:     {25, 26},
		trace.StageExec:     {26, 40},
		trace.StageWait:     {40, 115},
		trace.StageTeardown: {115, 120},
	}
	leaf1 := stageSpans{trace.StageQueue: {40, 45}, trace.StageExec: {45, 80}, trace.StageTeardown: {80, 82}}
	leaf2 := stageSpans{trace.StageQueue: {42, 60}, trace.StageExec: {60, 110}, trace.StageTeardown: {110, 112}}
	l := measured(client, client, invoke, []stageSpans{root, leaf1, leaf2})
	if l.clusterHopUS != 0 {
		t.Fatalf("edge workload has a cluster hop %v", l.clusterHopUS)
	}

	var all []span
	sum := 0.0
	for _, inv := range []stageSpans{root, leaf1, leaf2} {
		for st, s := range inv {
			if st == trace.StageWait {
				continue
			}
			all = append(all, s)
			sum += s.dur()
		}
	}
	overlap := sum - covered(invoke, all)
	want := 100 * (selfTime(invoke, all) - overlap) / client.dur()
	if math.Abs(l.residualPct()-want) > 1e-9 {
		t.Fatalf("residual %v%%, want %v%% (uncovered %v minus overlap %v)", l.residualPct(), want, selfTime(invoke, all), overlap)
	}
	if l.residualPct() >= 0 {
		t.Fatalf("residual %v%%: overlapping leaves must pull it below zero here", l.residualPct())
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	sorted := []int64{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0.1: 1} {
		if got := quantileUS(sorted, q); got != want {
			t.Errorf("q%.2f = %v µs, want %v", q, got, want)
		}
	}
	if got := meanOKUS([]int64{1000, 3000, failedLatency}); got != 2 {
		t.Errorf("mean of successes %v µs, want 2", got)
	}
}

func TestQuietKeepsSlicesTheHypervisorLeftAlone(t *testing.T) {
	mk := func(v ...float64) []slice {
		out := make([]slice, len(v))
		for i, s := range v {
			out[i] = slice{steal: s, thr: float64(i)}
		}
		return out
	}
	// Enough clean slices: all of them, in order, and only them.
	got := quiet(mk(0, 0.4, 0.01, 0.02, 0.3, 0, 0.5))
	if want := []float64{0, 0.01, 0.02, 0}; !slices.Equal(stealOf(got), want) {
		t.Errorf("kept %v, want %v", stealOf(got), want)
	}
	// Too few clean slices: the least-stolen third.
	got = quiet(mk(0.3, 0.1, 0.5, 0.2, 0.4, 0.6))
	if want := []float64{0.1, 0.2}; !slices.Equal(stealOf(got), want) {
		t.Errorf("kept %v, want %v", stealOf(got), want)
	}
	if got := quiet(mk(0.9)); len(got) != 1 {
		t.Errorf("one slice: kept %d", len(got))
	}
}
