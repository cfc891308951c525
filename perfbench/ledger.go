package main

import "jord/internal/server/trace"

// The ledger checks that per-layer costs add up to what the client sees.
// A layer's self time is the mean duration of a call into it minus the
// part its callees cover, each term timed from outside the layer:
//
//	cluster  = client RTT through the dispatcher - RTT of the same keyed
//	           request sent straight to a worker edge
//	gateway  = RTT at the worker edge - in-process Pool.Invoke
//	pool     = the stage spans the worker records inside Pool.Invoke, per
//	           request: queue, init, exec and teardown (wait is time its
//	           child invocations cover, and state is part of exec, so
//	           neither is added)
//
// The residual is the client RTT no self time accounts for: the part of
// Pool.Invoke outside every stage span (the hand-off to the orchestrator
// and the caller's wake-up). Children that run in parallel (fanout2's
// leaves) are each counted in full, which pulls the residual down.

// poolStages are the worker trace stages the ledger sums as the pool's
// self time.
var poolStages = []trace.Stage{trace.StageQueue, trace.StageInit, trace.StageExec, trace.StageTeardown}

// ledger holds one workload's per-request means in microseconds.
type ledger struct {
	rttUS        float64                  // client.rtt_us_mean: the base
	clusterHopUS float64                  // 0 when the path has no dispatcher
	gatewayHopUS float64                  // edge RTT minus Pool.Invoke
	stageUS      [trace.NumStages]float64 // per-request stage time inside Pool.Invoke
}

// selfSumUS is the sum of every layer's self time.
func (l ledger) selfSumUS() float64 {
	sum := l.clusterHopUS + l.gatewayHopUS
	for _, st := range poolStages {
		sum += l.stageUS[st]
	}
	return sum
}

// residualPct is the share of the client RTT, in percent, that the self
// times leave unaccounted.
func (l ledger) residualPct() float64 {
	if l.rttUS == 0 {
		return 0
	}
	return 100 * (l.rttUS - l.selfSumUS()) / l.rttUS
}
