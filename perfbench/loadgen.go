package main

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// The load generator is open-loop: requests are due on a seeded Poisson
// schedule whether or not earlier ones have completed. Each request goes
// over a fixed connection, and a connection carries one request at a time
// in schedule order, so a slow request delays the ones queued behind it on
// its connection. Latency is timed from the due time, which charges that
// wait to every delayed request.

// poissonSchedule returns the due times of a Poisson arrival process of the
// given rate over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// sample is the fate of one scheduled request, as offsets from the start
// of its phase.
type sample struct {
	due, sent, done time.Duration
	late            time.Duration // how late the generator handed it to its connection
	ok              bool          // completed and passed its checks
	skipped         bool          // never sent: still queued when the phase was cut off
}

func (s sample) latency() time.Duration { return s.done - s.due }

// openLoop hands request i to connection connOf(i) at sched[i]. Each of
// the conns connections sends its requests one at a time, in order, by
// calling send. A request still queued cutoff after the last due time is
// skipped, which bounds a phase whose offered load exceeds capacity.
// openLoop returns when every request has completed or been skipped.
func openLoop(sched []time.Duration, conns int, connOf func(int) int, cutoff time.Duration, send func(conn, i int) bool) []sample {
	samples := make([]sample, len(sched))
	var deadline time.Duration
	if len(sched) > 0 {
		deadline = sched[len(sched)-1] + cutoff
	}
	queues := make([]chan int, conns)
	for c := range queues {
		queues[c] = make(chan int, len(sched)) // sized to the number of sends: the dispatcher never blocks
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range queues {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queues[c] {
				now := time.Since(t0)
				if now > deadline {
					samples[i].skipped = true
					continue
				}
				samples[i].sent = now
				ok := send(c, i)
				samples[i].done = time.Since(t0)
				samples[i].ok = ok
			}
		}(c)
	}
	for i, due := range sched {
		if d := due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		samples[i].due = due
		samples[i].late = time.Since(t0) - due
		queues[connOf(i)] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return samples
}

// latenciesMS returns the latencies of the requests that completed and
// passed their checks, in milliseconds.
func latenciesMS(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// windowed splits a phase of length dur into k windows by due time and
// returns the median over the windows of each window's q-quantile latency
// (requests that completed and passed their checks).
func windowed(samples []sample, dur time.Duration, k int, q float64) float64 {
	if k < 1 {
		k = 1
	}
	wins := make([][]sample, k)
	for _, s := range samples {
		i := min(int(int64(s.due)*int64(k)/int64(dur)), k-1)
		wins[i] = append(wins[i], s)
	}
	var qs []float64
	for _, w := range wins {
		if lat := latenciesMS(w); len(lat) > 0 {
			qs = append(qs, nearestRank(lat, q))
		}
	}
	return median(qs)
}

// lateP99MS is the generator's own lateness at the 99th percentile.
func lateP99MS(samples []sample) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = ms(s.late)
	}
	return nearestRank(xs, 0.99)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// backlog counts the requests due by t that had not completed by t.
func backlog(samples []sample, t time.Duration) int {
	n := 0
	for _, s := range samples {
		if s.due <= t && (s.skipped || s.done > t) {
			n++
		}
	}
	return n
}

// growingBacklog reports whether the backlog at the end of a phase of
// length dur exceeds the backlog at its midpoint by more than noise: twice
// the connection count, or 5% of the arrivals in the second half.
func growingBacklog(samples []sample, dur time.Duration, conns int) bool {
	mid := dur / 2
	arrivals := 0
	for _, s := range samples {
		if s.due > mid {
			arrivals++
		}
	}
	slack := math.Max(float64(2*conns), 0.05*float64(arrivals))
	return float64(backlog(samples, dur)-backlog(samples, mid)) > slack
}

// rungOutcome is the verdict on one rate of the goodput ladder.
type rungOutcome struct {
	rate     float64 // offered, requests per second
	goodRPS  float64 // rate × share: the rate of requests completing OK within the limit
	share    float64 // of the requests due in the median window, the share that completed OK within the limit
	growing  bool
	lateP99  float64 // ms
	pass     bool
	requests int
}

// rungWindow is the window over which a rung's share is taken.
const rungWindow = 250 * time.Millisecond

// judgeRung applies the goodput rule: in the median rungWindow of the rung,
// at least minShare of the requests due complete OK within limit; the
// backlog does not grow; and the generator kept to its schedule within the
// same limit. Taking the median window keeps one stall of the machine from
// failing a rate the program sustains, while a rate it cannot sustain fails
// every window.
func judgeRung(rate float64, samples []sample, dur, limit time.Duration, minShare float64, conns int) rungOutcome {
	k := int(dur / rungWindow)
	if k < 1 {
		k = 1
	}
	good, due := make([]float64, k), make([]float64, k)
	for _, s := range samples {
		i := min(int(int64(s.due)*int64(k)/int64(dur)), k-1)
		due[i]++
		if s.ok && s.latency() <= limit {
			good[i]++
		}
	}
	var shares []float64
	for i := range due {
		if due[i] > 0 {
			shares = append(shares, good[i]/due[i])
		}
	}
	share := 0.0
	if len(shares) > 0 {
		share = median(shares)
	}
	r := rungOutcome{
		rate:     rate,
		goodRPS:  rate * share,
		share:    share,
		growing:  growingBacklog(samples, dur, conns),
		lateP99:  lateP99MS(samples),
		requests: len(samples),
	}
	r.pass = len(samples) > 0 && share >= minShare && !r.growing && r.lateP99 <= ms(limit)
	return r
}

// ladderRate is rung k of the fixed geometric ladder.
func ladderRate(lo, step float64, k int) float64 { return lo * math.Pow(step, float64(k)) }

// climbLadder finds the highest passing rung of a ladder of n rungs by
// bisection, assuming a rung passes whenever a higher one does. It returns
// the passing outcome (rate 0 when even rung 0 fails) and every probe.
func climbLadder(n int, probe func(k int) rungOutcome) (rungOutcome, []rungOutcome) {
	lo, hi := -1, n
	var best rungOutcome
	var probes []rungOutcome
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		r := probe(mid)
		probes = append(probes, r)
		if r.pass {
			lo, best = mid, r
		} else {
			hi = mid
		}
	}
	return best, probes
}
