package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// The calibrator is a fixed reference load that shares no code with Jord:
// calConns closed-loop clients each send a calMsg-byte message over a
// loopback TCP connection to an in-process server that hashes it, builds a
// few short-lived heap objects and echoes it back. It uses what the
// workloads use most (loopback syscalls, the Go netpoller and scheduler,
// the allocator and GC, plain computation), so its rate follows the speed
// the shared host gives this machine from one second to the next. Short
// calibration bursts run between the measured slices; each slice's timed
// metrics are scaled by the host speed around it (see hostSpeed and
// slice.scaledThr).
const (
	calConns   = 2
	calMsg     = 64
	calHashes  = 4
	calObjects = 16
	// calBurst is how long one calibration burst runs.
	calBurst = 200 * time.Millisecond
)

// calRefRPS is the calibrator's round-trip rate at reference speed, by
// GOMAXPROCS: about its median over many runs on the two-CPU virtual
// machine the benchmark was written on. Scaled metrics read as if
// measured at that speed.
var calRefRPS = map[int]float64{1: 65000, 2: 80000}

// hostSpeed is the host's speed over a measured slice relative to the
// reference: the mean calibrator rate of the bursts just before and just
// after it, over the reference rate at this GOMAXPROCS.
func hostSpeed(before, after float64) float64 {
	return (before + after) / 2 / calRefRPS[runtime.GOMAXPROCS(0)]
}

// calSink keeps the calibrator's heap objects from being optimised away.
var calSink [calObjects]*[32]byte

type calibrator struct {
	ln      net.Listener
	clients []net.Conn
	wg      sync.WaitGroup // server goroutines
}

func startCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &calibrator{ln: ln}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			sc, err := ln.Accept()
			if err != nil {
				return
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				defer sc.Close()
				calServe(sc)
			}()
		}
	}()
	for range calConns {
		cc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			c.stop()
			return nil, err
		}
		c.clients = append(c.clients, cc)
	}
	return c, nil
}

// calServe answers one connection until it closes.
func calServe(sc net.Conn) {
	var buf [calMsg]byte
	for {
		if _, err := io.ReadFull(sc, buf[:]); err != nil {
			return
		}
		sum := sha256.Sum256(buf[:])
		for range calHashes - 1 {
			sum = sha256.Sum256(sum[:])
		}
		for i := range calSink {
			o := new([32]byte)
			*o = sum
			o[0] ^= byte(i)
			calSink[i] = o
		}
		copy(buf[:], sum[:])
		if _, err := sc.Write(buf[:]); err != nil {
			return
		}
	}
}

// burst runs the calibration load for d and returns its round trips per
// second.
func (c *calibrator) burst(d time.Duration) (float64, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    int
		firstErr error
	)
	start := time.Now()
	deadline := start.Add(d)
	for _, cc := range c.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [calMsg]byte
			n := 0
			var err error
			for err == nil && time.Now().Before(deadline) {
				buf[0] = byte(n)
				if _, err = cc.Write(buf[:]); err == nil {
					_, err = io.ReadFull(cc, buf[:])
				}
				n++
			}
			mu.Lock()
			defer mu.Unlock()
			total += n
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("calibrator: %w", err)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(total) / time.Since(start).Seconds(), nil
}

// stop closes every connection and waits for the server goroutines.
func (c *calibrator) stop() {
	c.ln.Close()
	for _, cc := range c.clients {
		cc.Close()
	}
	c.wg.Wait()
}
