package main

import (
	"math/rand"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: for minutes at a time its
// neighbours take memory bandwidth, cache and CPU, and every operation of
// a run slows by a common factor, up to a third. Measured over sets of
// ten runs, that common factor was most of the spread of every throughput
// metric. So every end-to-end time is reported at a nominal host speed:
// the benchmark runs a fixed piece of its own work, the yardstick, before
// every timed operation and scales each time by yardstickNominal over the
// run's mean yardstick time. The yardstick is benchmark code and never
// changes with the program, so a faster program still reads faster; the
// unscaled wall-clock rates are kept in the full result (".wall" samples).
//
// yardstickNominal is the yardstick's time on the host the bounds of
// BENCHMARK.json were set on, a 2-vCPU Intel Xeon VM. It only sets the
// scale: on that host a scaled figure is the wall-clock one.
const yardstickNominal = 8 * time.Millisecond

// yardstick does dependent loads over a 16 MB random cycle, updates in a
// preallocated map, an arithmetic chain, and then passes a token round a
// ring of goroutines as the guest machine hands the CPU from thread to
// thread: the memory latency, hashing, integer work and goroutine
// switches the profiler's operations are made of, each about half of a
// pass. (Without the ring, the yardstick missed most of the slowdown of
// the live routes, whose guest threads switch on every timeslice.)
type yardstick struct {
	next []uint32
	m    map[uint64]uint64
	sink uint64
}

const (
	yardstickCycle   = 4 << 20 // entries of next: 16 MB
	yardstickLoads   = 25_000
	yardstickUpdates = 12_500
	yardstickSteps   = 250_000
	yardstickThreads = 16 // goroutines in the ring
	yardstickRounds  = 900
)

func newYardstick() *yardstick {
	r := rand.New(rand.NewSource(1))
	perm := r.Perm(yardstickCycle)
	y := &yardstick{next: make([]uint32, yardstickCycle), m: make(map[uint64]uint64, 4*yardstickUpdates)}
	for i, p := range perm {
		y.next[p] = uint32(perm[(i+1)%len(perm)])
	}
	return y
}

// run does one pass and returns its wall time.
func (y *yardstick) run() (time.Duration, error) {
	start := time.Now()
	j := uint32(y.sink)
	for i := 0; i < yardstickLoads; i++ {
		j = y.next[j]
	}
	clear(y.m)
	k := uint64(j)
	for i := 0; i < yardstickUpdates; i++ {
		k = k*6364136223846793005 + 1442695040888963407
		y.m[k>>40] += k
	}
	for i := 0; i < yardstickSteps; i++ {
		k = k*6364136223846793005 + 1442695040888963407
	}
	y.sink = k % yardstickCycle

	var ring [yardstickThreads]chan struct{}
	for i := range ring {
		ring[i] = make(chan struct{}, 1)
	}
	var wg sync.WaitGroup
	for i := range ring {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < yardstickRounds; r++ {
				<-ring[i]
				ring[(i+1)%yardstickThreads] <- struct{}{}
			}
		}(i)
	}
	ring[0] <- struct{}{}
	wg.Wait()
	<-ring[0] // the last pass of the ring
	return time.Since(start), nil
}
