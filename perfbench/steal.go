package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// userHZ is the unit of the time columns of /proc/stat (USER_HZ, 100 on
// every Linux architecture Go supports).
const userHZ = 100

// stealClock reads the time the hypervisor ran something else on this
// virtual machine's CPUs while the benchmark had them (the "steal" column
// of /proc/stat). On a shared host that share comes and goes for minutes
// at a time (0 to 40% of a run was seen), and a wall-clock time that
// includes it measures the neighbours. Every end-to-end time this
// benchmark reports starts from its wall time less the steal that fell
// within it, before it is scaled to nominal host speed (see
// yardstickNominal). On bare metal, or where the column is missing, the
// steal is zero.
type stealClock struct {
	path string // /proc/stat; a test may point it elsewhere
	ncpu int
}

func newStealClock() *stealClock {
	return &stealClock{path: "/proc/stat", ncpu: runtime.NumCPU()}
}

// read returns the steal summed over all CPUs since boot, divided by the
// number of CPUs: the wall time a process that uses all of them evenly
// has lost so far. It is zero when the kernel reports no steal column.
func (c *stealClock) read() (time.Duration, error) {
	b, err := os.ReadFile(c.path)
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) == 0 || f[0] != "cpu" {
		return 0, fmt.Errorf("%s: first line is not the cpu total", c.path)
	}
	const stealField = 8 // cpu user nice system idle iowait irq softirq steal
	if len(f) <= stealField {
		return 0, nil
	}
	ticks, err := strconv.ParseUint(f[stealField], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: steal column: %w", c.path, err)
	}
	return time.Duration(ticks) * time.Second / userHZ / time.Duration(c.ncpu), nil
}

// timed is one timed operation: the wall time it reports, and the steal
// that fell within that time.
type timed struct {
	wall, stolen time.Duration
}

// onCPU is the operation's wall time less its steal.
func (t timed) onCPU() time.Duration { return t.wall - t.stolen }

// measure runs fn, which returns the wall time of the part of it that it
// times, and charges that part its share of the steal during the call.
func (c *stealClock) measure(fn func() (time.Duration, error)) (timed, error) {
	s0, err := c.read()
	if err != nil {
		return timed{}, err
	}
	start := time.Now()
	d, err := fn()
	outer := time.Since(start)
	s1, rerr := c.read()
	if err == nil {
		err = rerr
	}
	if err != nil || outer <= 0 {
		return timed{wall: d}, err
	}
	return timed{wall: d, stolen: time.Duration(float64(s1-s0) * float64(d) / float64(outer))}, nil
}

// stealTally sums the timed operations of each metric, for the report.
type stealTally map[string]timed

func (s stealTally) add(metric string, t timed) {
	sum := s[metric]
	sum.wall += t.wall
	sum.stolen += t.stolen
	s[metric] = sum
}

// share is the part of a metric's wall time the host stole.
func (t timed) share() float64 {
	if t.wall <= 0 {
		return 0
	}
	return float64(t.stolen) / float64(t.wall)
}
