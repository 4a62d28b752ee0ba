package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's host is a few vCPUs of a shared machine: how much work a
// CPU millisecond buys moves by up to a factor of two within minutes, as
// neighbours load the machine. A gated CPU time is therefore taken beside
// a fixed calibration kernel that depends on nothing in the repository,
// and reported as the ratio of the two times calibMS, the kernel's time
// on a quiet host: it reads as CPU ms on that host, whatever the host is
// doing.

// calibMS is about the kernel's CPU time on a quiet 2-vCPU Intel Xeon
// host, the scale the calibrated times are given in.
const calibMS = 0.22

// calibReps is how many eliminations of a calibN×calibN matrix one kernel
// run makes.
const (
	calibReps = 12
	calibN    = 40
)

// calibMatrix is the kernel's matrix, allocated once so that a kernel run
// neither allocates nor grows its goroutine's stack.
var calibMatrix [calibN * calibN]float64

// calibKernel is the calibration work: Gaussian elimination with partial
// pivoting on a 40×40 matrix, calibReps times, in calibMatrix. It stays in
// the L1 cache and allocates nothing, so no collection work lands in it.
// Of three candidates timed beside replays of capacitated and DP srrp
// requests, over 150 s in which the host's speed moved 24% between blocks
// of ten rounds, it tracked the replays best: their ratio to it moved 4.1%
// (capacitated) and 3.6% (DP), to a map, string and sort pass 5.7% and
// 10.5%, to a pointer chase over 2 MB 19.6% and 20.6%. It returns a value
// derived from every step, so the compiler keeps them all. It is not safe
// for concurrent use.
func calibKernel() float64 {
	const n = calibN
	a := calibMatrix[:]
	x := uint64(0x9e3779b97f4a7c15)
	s := 0.0
	for rep := 0; rep < calibReps; rep++ {
		for i := range a {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			a[i] = float64(x>>11) / (1 << 53)
		}
		for k := 0; k < n; k++ {
			p := k
			for i := k + 1; i < n; i++ {
				if math.Abs(a[i*n+k]) > math.Abs(a[p*n+k]) {
					p = i
				}
			}
			for j := 0; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
			for i := k + 1; i < n; i++ {
				f := a[i*n+k] / a[k*n+k]
				for j := k; j < n; j++ {
					a[i*n+j] -= f * a[k*n+j]
				}
			}
			s += math.Log(math.Abs(a[k*n+k]))
		}
	}
	return s
}

// segments calibrates timed work that hands control back now and then
// while it waits: a serve phase between two requests, a set-up when it
// ends, fleet.Run in its OnEpoch hook. At each hand-back cut closes a
// segment of the process CPU time and pairs it with kernel runs made there,
// where the host is in the state the segment met.
type segments struct {
	kernels int // kernel runs per cut
	c0      float64
	pairs   []cpuPair
}

// cpuPair is one segment's CPU milliseconds and the mean of its kernel
// runs.
type cpuPair struct{ item, kernel float64 }

// cutKernels is how many kernel runs a cut makes where segments are long
// and few: a set-up, a fleet epoch.
const cutKernels = 4

func newSegments(kernels int) *segments { return &segments{kernels: kernels, c0: cpuSeconds()} }

// cut closes the current segment and runs its kernels outside every
// segment.
func (s *segments) cut() {
	item := 1000 * (cpuSeconds() - s.c0)
	k := 0.0
	for i := 0; i < s.kernels; i++ {
		k += kernelCPU()
	}
	s.pairs = append(s.pairs, cpuPair{item: item, kernel: k / float64(s.kernels)})
	s.c0 = cpuSeconds()
}

// calibratedMS is the segments' CPU milliseconds, each segment scaled to
// the quiet host by its own kernel runs: times calibMS over their mean.
func (s *segments) calibratedMS() float64 {
	t := 0.0
	for _, p := range s.pairs {
		t += p.item * calibMS / p.kernel
	}
	return t
}

// perItemMS is the mean CPU milliseconds of a segment, one item each,
// scaled to the quiet host, without the costliest share trim of the items:
// calibMS times the remaining items' total over their kernel runs' total.
// Many short items make the totals steadier than item-by-item scaling.
func (s *segments) perItemMS(trim float64) float64 {
	return calibMS * trimmedRatio(s.pairs, trim)
}

// rawMS is the segments' CPU milliseconds, unscaled.
func (s *segments) rawMS() float64 {
	t := 0.0
	for _, p := range s.pairs {
		t += p.item
	}
	return t
}

// kernelMS is the mean time of a kernel run over every cut.
func (s *segments) kernelMS() float64 {
	t := 0.0
	for _, p := range s.pairs {
		t += p.kernel
	}
	return t / float64(len(s.pairs))
}

// trimTop is the share of the costliest items a serve phase's gated figure
// leaves out. Capacitated solves have a heavy tail: one request in
// thousands searches for most of a second, and one such request decides
// a seed's mean (measured: up to 55% of a 3000-request stream's CPU). The
// tail stays visible in the untrimmed figure and in p95_ms.
const trimTop = 0.01

// trimmedRatio drops the share trim of the pairs with the highest item to
// kernel ratio and returns the remaining items' total over their kernel
// runs' total.
func trimmedRatio(pairs []cpuPair, trim float64) float64 {
	ps := append([]cpuPair(nil), pairs...)
	sort.Slice(ps, func(a, b int) bool { return ps[a].item*ps[b].kernel < ps[b].item*ps[a].kernel })
	ps = ps[:len(ps)-int(trim*float64(len(ps)))]
	var items, kernel float64
	for _, p := range ps {
		items += p.item
		kernel += p.kernel
	}
	return ratio(items, kernel)
}

// calibPeriod is how often sampledCPU's calibrator runs the kernel.
const calibPeriod = 20 * time.Millisecond

// sampledCPU runs fn while a calibrator goroutine, held on an OS thread of
// its own, runs the kernel every calibPeriod. It returns fn's process CPU
// milliseconds without the kernel's, scaled to the quiet host by the
// kernel runs' mean, and unscaled. It suits a call of seconds that hands
// control back too seldom to be cut into segments: the kernel then samples
// the host all through the call, if not on the call's own thread.
func sampledCPU(fn func() error) (calibrated, raw float64, err error) {
	stop, ready := make(chan struct{}), make(chan struct{})
	done := make(chan []float64)
	cpu0 := cpuSeconds()
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(calibPeriod)
		defer tick.Stop()
		var runs []float64
		close(ready)
		for {
			c0 := threadCPUSeconds()
			calibSink += calibKernel()
			runs = append(runs, 1000*(threadCPUSeconds()-c0))
			select {
			case <-stop:
				done <- runs
				return
			case <-tick.C:
			}
		}
	}()
	<-ready
	err = fn()
	close(stop)
	runs := <-done
	raw = 1000*(cpuSeconds()-cpu0) - sum(runs)
	return raw * calibMS / mean(runs), raw, err
}

// kernelCPU runs the kernel once on the calling goroutine, held on its OS
// thread, and returns the thread's CPU milliseconds.
func kernelCPU() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUSeconds()
	calibSink += calibKernel()
	return 1000 * (threadCPUSeconds() - c0)
}

// calibSink keeps the kernel's results live.
var calibSink float64

// threadCPUSeconds is the CPU time of the calling OS thread, read from
// CLOCK_THREAD_CPUTIME_ID: getrusage's RUSAGE_THREAD lags by up to a
// scheduler tick, longer than one kernel run.
func threadCPUSeconds() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano()).Seconds()
}
