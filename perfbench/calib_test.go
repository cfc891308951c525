package main

import (
	"runtime"
	"testing"
	"time"
)

func TestCalibratorBurstAndStop(t *testing.T) {
	c, err := startCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	rate, err := c.burst(20 * time.Millisecond)
	if err != nil || rate <= 0 {
		t.Fatalf("burst: rate %v err %v, want a positive rate", rate, err)
	}
	c.stop() // returns only once every server goroutine has ended
	if _, err := c.burst(time.Millisecond); err == nil {
		t.Fatal("burst on a stopped calibrator did not fail")
	}
}

func TestHostSpeedScaling(t *testing.T) {
	// A host at half the reference speed halves raw throughput and doubles
	// raw latency and CPU time; scaling undoes both.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	half := calRefRPS[1] / 2
	s := slice{speed: hostSpeed(half, half), thr: 500, p50: 200, p90: 400, cpu: 100}
	if s.scaledThr() != 1000 || s.scaledP50() != 100 || s.scaledP90() != 200 || s.scaledCPU() != 50 {
		t.Fatalf("scaled %v %v %v %v", s.scaledThr(), s.scaledP50(), s.scaledP90(), s.scaledCPU())
	}
}
