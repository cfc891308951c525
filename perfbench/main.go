// Command perfbench is the repository's benchmark: closed-loop workloads
// against an in-process Jord rig (worker edges, and for cluster workloads
// the JBSQ dispatcher in front of them), reporting end-to-end metrics, or
// with -trace 1 per-layer costs measured from outside each layer's public
// entry point. See README.md for the workloads and the metric definitions.
//
//	bash perfbench/run.sh --workload cluster_echo --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	// setupRuns is how many cold starts one run times; setup_s is their
	// median.
	setupRuns = 51
	// warmup runs before any measured window: long enough for PD caches,
	// runner pools and connection state to settle.
	warmup = 2 * time.Second
	// dedupCap is the worker's default dedup cache size; cluster_echo
	// warms until every worker's cache is full and evicting.
	dedupCap = 4096
	// maxCallerRPS bounds the requests one caller completes per second,
	// for sizing its latency buffer (the fastest workload does ~20k).
	maxCallerRPS = 50_000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	name := flag.String("workload", "", "workload name: cluster_echo, edge_nested or edge_social")
	seed := flag.Int64("seed", 1, "seed of the request streams")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		log.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

func run(w *workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	runtime.GOMAXPROCS(w.procs)
	r, setupS, err := setUp(w, setupRuns)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	if w.name == "edge_social" {
		if err := seedSocial(r.addr); err != nil {
			return nil, err
		}
	}
	// A caller holds one window's samples: a one-second slice of the
	// end-to-end run or one traced window.
	latCap := int(max(subWindow, dur/(3*traceRounds)).Seconds()+1) * maxCallerRPS
	callers, err := dialCallers(r.addr, w.streams(seed, w.conns), len(w.ops), latCap)
	if err != nil {
		return nil, err
	}
	defer closeCallers(callers)
	if err := warm(r, w, callers); err != nil {
		return nil, err
	}
	if traced {
		return measureLayers(r, w, seed, callers, dur)
	}
	return measureEndToEnd(r, w, callers, dur, setupS)
}

func dialCallers(addr string, streams [][]request, ops, latCap int) ([]*caller, error) {
	var out []*caller
	for _, s := range streams {
		c, err := dial(addr)
		if err != nil {
			closeCallers(out)
			return nil, err
		}
		out = append(out, newCaller(c, s, ops, latCap))
	}
	return out, nil
}

func closeCallers(callers []*caller) {
	for _, cl := range callers {
		cl.c.close()
	}
}

// warm runs the workload unmeasured. cluster_echo keeps going until every
// worker's dedup cache that holds entries has filled and started evicting,
// so the measured window sees its steady LRU state. (With one connection
// the dispatcher finds every worker idle and places every request on the
// first, so the second never holds any.)
func warm(r *rig, w *workload, callers []*caller) error {
	window(callers, warmup)
	for deadline := time.Now().Add(30 * time.Second); w.viaCluster && !dedupEvicting(r); {
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: dedup caches not evicting after 30s")
		}
		window(callers, 500*time.Millisecond)
	}
	t := sumCallers(callers, len(w.ops))
	logFailures("warm-up", w, t)
	resetCallers(callers)
	return r.trim(w)
}

func dedupEvicting(r *rig) bool {
	used := 0
	for _, d := range r.daemons {
		dc := d.Gateway().Dedup
		if dc == nil {
			return false
		}
		if dc.Len() == 0 {
			continue
		}
		if dc.Len() < dedupCap || dc.Evictions() == 0 {
			return false
		}
		used++
	}
	return used > 0
}

// subWindow is the length of one slice of the measured window.
const subWindow = time.Second

// The timed metrics are taken from the slices the hypervisor left alone.
// On a shared virtual machine the host takes the CPUs away for seconds at
// a time (up to half of them, on the box the benchmark was written on),
// which moves throughput and latency by far more than any change worth
// measuring. Slices with at most maxSteal of the CPU time stolen are kept;
// if fewer than minQuietShare of them are, the least-stolen minQuietShare
// of all slices are.
const (
	maxSteal      = 0.02
	minQuietShare = 1.0 / 3
)

// slice is one subWindow's measurements: the raw timed metrics, the
// share of CPU time stolen, and the host speed around the slice.
type slice struct {
	steal, speed, thr, p50, p90, cpu float64
}

// The timed metrics are reported at reference host speed: each slice's
// throughput is divided by the host speed around it (see calib.go) and its
// latencies and CPU time per request are multiplied by it. On the shared
// virtual machine the benchmark was written on, the host's speed moved the
// raw figures of these loopback workloads by up to 40% from one run to the
// next (it changes how fast an idle virtual CPU wakes, and the workloads
// hand every request between sockets and goroutines several times), while
// the scaled ones moved a few percent. The raw medians go to standard
// error.
func (s slice) scaledThr() float64 { return s.thr / s.speed }
func (s slice) scaledP50() float64 { return s.p50 * s.speed }
func (s slice) scaledP90() float64 { return s.p90 * s.speed }
func (s slice) scaledCPU() float64 { return s.cpu * s.speed }

// measureEndToEnd runs the measured window as back-to-back slices with a
// calibration burst after each, and reports the end-to-end metrics: the
// timed ones as medians over the quiet slices, at reference host speed.
func measureEndToEnd(r *rig, w *workload, callers []*caller, dur time.Duration, setupS float64) (*result, error) {
	var (
		all    tally
		slices []slice
	)
	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.stop()
	if _, err := cal.burst(calBurst); err != nil { // warm-up
		return nil, err
	}
	runtime.GC()
	before, err := cal.burst(calBurst)
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(dur/subWindow); i++ {
		if err := r.trim(w); err != nil {
			return nil, err
		}
		st0, err := readCPUStat()
		if err != nil {
			return nil, err
		}
		cpu0 := cpuTime()
		elapsed := window(callers, subWindow)
		cpu1 := cpuTime()
		st1, err := readCPUStat()
		if err != nil {
			return nil, err
		}
		after, err := cal.burst(calBurst)
		if err != nil {
			return nil, err
		}
		t := sumCallers(callers, len(w.ops))
		lat := latencies(callers, -1)
		slices = append(slices, slice{
			steal: st1.stealShare(st0),
			speed: hostSpeed(before, after),
			thr:   float64(t.ok) / elapsed.Seconds(),
			p50:   quantileUS(lat, 0.50),
			p90:   quantileUS(lat, 0.90),
			cpu:   (cpu1 - cpu0).Seconds() * 1e6 / float64(t.attempted),
		})
		before = after
		all.add(t)
		resetCallers(callers)
	}
	logFailures("window", w, all)
	kept := quiet(slices)
	pick := func(f func(slice) float64) float64 {
		v := make([]float64, len(kept))
		for i, s := range kept {
			v[i] = f(s)
		}
		return median(v)
	}
	log.Printf("%s: %d slices; steal %.3f over all, %.3f over the %d kept; host speed %.3f", w.name, len(slices),
		median(stealOf(slices)), median(stealOf(kept)), len(kept), pick(func(s slice) float64 { return s.speed }))
	log.Printf("%s: raw medians: throughput %.0f/s, p50 %.1f us, p90 %.1f us, cpu %.1f us/req", w.name,
		pick(func(s slice) float64 { return s.thr }), pick(func(s slice) float64 { return s.p50 }),
		pick(func(s slice) float64 { return s.p90 }), pick(func(s slice) float64 { return s.cpu }))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   all.wrong == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics: map[string]metric{
			"setup_s":        {setupS, "s"},
			"throughput_rps": {pick(slice.scaledThr), "1/s"},
			"lat_p50_us":     {pick(slice.scaledP50), "us"},
			"lat_p90_us":     {pick(slice.scaledP90), "us"},
			"cpu_us_per_req": {pick(slice.scaledCPU), "us"},
			"rss_peak_mb":    {rss, "MB"},
		},
	}, nil
}

// quiet returns the slices the timed metrics are taken from, in their
// original order.
func quiet(slices []slice) []slice {
	idx := make([]int, len(slices))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return slices[idx[a]].steal < slices[idx[b]].steal })
	n := 0
	for n < len(idx) && slices[idx[n]].steal <= maxSteal {
		n++
	}
	n = max(n, 1, int(math.Round(minQuietShare*float64(len(slices)))))
	idx = idx[:min(n, len(idx))]
	sort.Ints(idx)
	out := make([]slice, len(idx))
	for i, j := range idx {
		out[i] = slices[j]
	}
	return out
}

func stealOf(slices []slice) []float64 {
	v := make([]float64, len(slices))
	for i, s := range slices {
		v[i] = s.steal
	}
	return v
}

// cpuStat is the machine-wide CPU time counters of /proc/stat, in ticks.
type cpuStat struct{ steal, total uint64 }

// stealShare is the share of CPU time between b and s that the
// hypervisor gave to other guests.
func (s cpuStat) stealShare(b cpuStat) float64 {
	if s.total <= b.total {
		return 0
	}
	return float64(s.steal-b.steal) / float64(s.total-b.total)
}

// readCPUStat reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, ...
func readCPUStat() (cpuStat, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return cpuStat{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var s cpuStat
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(string(x), 10, 64)
		if err != nil {
			return cpuStat{}, fmt.Errorf("/proc/stat: %w", err)
		}
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s, nil
}

// logFailures writes the failure tally and the kept failures to stderr,
// and how many take conflicts were resent.
func logFailures(phase string, w *workload, t tally) {
	for i, op := range w.ops {
		if t.opConflicts[i] > 0 {
			log.Printf("%s: %s: %d take conflicts resent over %d requests", phase, op, t.opConflicts[i], t.opAttempted[i])
		}
	}
	if t.failed == 0 {
		return
	}
	log.Printf("%s: %s: %d of %d requests failed (%d wrong replies)", phase, w.name, t.failed, t.attempted, t.wrong)
	for i, op := range w.ops {
		if t.opFailed[i] > 0 {
			log.Printf("  %s: %d of %d failed", op, t.opFailed[i], t.opAttempted[i])
		}
	}
	for _, f := range t.fails {
		log.Printf("  %s: status %d: %s", w.ops[f.op], f.status, f.msg)
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		log.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) != 2 || string(fields[1]) != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
