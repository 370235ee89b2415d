package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"time"
)

// batchRepeats is how many times each batch route runs per aprofd flood:
// a flood takes about as long as three rounds of the four batch routes.
const batchRepeats = 3

// setupRepeats is how many times an end-to-end run sets up its inputs;
// setup_s is the median.
const setupRepeats = 5

// measureEndToEnd sets the workload up setupRepeats times, then spends the
// budget on the batch routes, the aprofd flood and the paced phase, with
// every telemetry registry off.
func measureEndToEnd(w workload, seed int64, budget time.Duration, scratch string, res *result) error {
	clock := newStealClock()
	steal := stealTally{}
	yard := newYardstick()
	var yardMS []float64
	// measure runs the yardstick, then times fn.
	measure := func(fn func() (time.Duration, error)) (timed, error) {
		y, err := clock.measure(yard.run)
		if err != nil {
			return y, err
		}
		yardMS = append(yardMS, float64(y.onCPU())/1e6)
		return clock.measure(fn)
	}
	var setups []float64
	var in *inputs
	for k := 0; k < setupRepeats; k++ {
		if in != nil {
			if err := in.close(); err != nil {
				return err
			}
		}
		freshHeap()
		t, err := clock.measure(func() (time.Duration, error) {
			start := time.Now()
			var err error
			in, err = setup(w, seed, filepath.Join(scratch, fmt.Sprintf("setup-%d", k)), nil)
			return time.Since(start), err
		})
		if err != nil {
			return err
		}
		steal.add("setup_s", t)
		setups = append(setups, t.onCPU().Seconds())
	}
	defer in.close()
	// peak_rss_mb is the most resident memory any operation adds on top of
	// the set-up's inputs, which every operation starts from (freshHeap).
	freshHeap()
	baseMB, _, err := residentMB()
	if err != nil {
		return err
	}
	if err := resetPeakRSS(); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	mev := func(d time.Duration) float64 { return float64(in.events) / 1e6 / d.Seconds() }

	samples := make(map[string][]float64)
	var lag, late []float64
	paced := func(i int) error {
		freshHeap()
		var l, g []time.Duration
		t, err := measure(func() (time.Duration, error) {
			start := time.Now()
			var err error
			l, g, err = in.paced(fmt.Sprintf("paced-%d", i))
			return time.Since(start), err
		})
		res.tally.record("aprofd paced", err)
		if err == nil {
			// A frame's lag is charged the pass's share of steal.
			steal.add("frontier_lag_p50_ms", t)
			onCPU := 1 - t.share()
			for _, d := range l {
				lag = append(lag, onCPU*float64(d)/1e6)
			}
			samples["frontier_lag_ms.wall"] = append(samples["frontier_lag_ms.wall"], millis(l)...)
			late = append(late, millis(g)...)
		}
		return err
	}

	// Every phase is spread over the whole run, so that each metric
	// samples the same host conditions: rounds of every batch route
	// batchRepeats times and one aprofd flood, with just enough paced
	// passes for minLagFrames frames at even intervals.
	pacedPasses := (minLagFrames + in.framesPerPass() - 1) / in.framesPerPass()
	start, passes := time.Now(), 0
	loop(budget, 5, func(i int) bool {
		for k := 0; k < batchRepeats*len(batchOps); k++ {
			op := batchOps[(i+k)%len(batchOps)] // rotate which route runs first
			freshHeap()
			t, err := measure(func() (time.Duration, error) { return op.run(in) })
			res.tally.record(op.metric, err)
			if err == nil {
				steal.add(op.metric, t)
				samples[op.metric] = append(samples[op.metric], mev(t.onCPU()))
				samples[op.metric+".wall"] = append(samples[op.metric+".wall"], mev(t.wall))
			}
		}
		freshHeap()
		t, err := measure(func() (time.Duration, error) { return in.flood(fmt.Sprintf("flood-%d", i)) })
		res.tally.record("aprofd flood", err)
		if err != nil {
			return false
		}
		steal.add("daemon_mev_per_s", t)
		samples["daemon_mev_per_s"] = append(samples["daemon_mev_per_s"], mev(t.onCPU()))
		samples["daemon_mev_per_s.wall"] = append(samples["daemon_mev_per_s.wall"], mev(t.wall))
		if passes < pacedPasses && time.Since(start) >= budget*time.Duration(passes+1)/time.Duration(pacedPasses+1) {
			if err := paced(passes); err != nil {
				return false
			}
			passes++
		}
		return true
	})
	for ; len(lag) < minLagFrames && res.tally.failed == 0; passes++ {
		paced(passes)
	}

	samples["frontier_lag_ms"], samples["generator_late_ms"], samples["yardstick_ms"] = lag, late, yardMS
	res.Samples = samples
	// speed is the host's speed over the run relative to the nominal one;
	// a time at nominal speed is the measured time times speed.
	speed := float64(yardstickNominal) / 1e6 / mean(yardMS)
	res.note("host speed: the yardstick took %.3f ms on average over %d passes, %.3f of nominal speed (%.3f ms); every end-to-end time is scaled to nominal speed",
		mean(yardMS), len(yardMS), speed, float64(yardstickNominal)/1e6)
	for _, op := range batchOps {
		res.add(fromRates(op.metric, "Mev/s", samples[op.metric]).scaled(1 / speed))
	}
	res.add(fromRates("daemon_mev_per_s", "Mev/s", samples["daemon_mev_per_s"]).scaled(1 / speed))
	if len(lag) >= minLagFrames {
		res.add(single("frontier_lag_p50_ms", "ms", percentile(lag, 50)*speed, len(lag), ""))
		res.note("paced phase: %d frames at %d events/s; frontier lag p%g %.3f ms; generator late p50 %.3f ms, p%g %.3f ms",
			len(lag), pacedRate, highestPercentile(len(lag)), percentile(lag, highestPercentile(len(lag)))*speed,
			percentile(late, 50), highestPercentile(len(late)), percentile(late, highestPercentile(len(late))))
	} else {
		res.tally.record("aprofd paced", errors.New("fewer than 1000 frames reached the frontier"))
		res.add(notMeasured("frontier_lag_p50_ms", "ms", "paced phase failed"))
	}
	_, peakMB, err := residentMB()
	if err != nil {
		return err
	}
	res.add(single("peak_rss_mb", "MB", peakMB-baseMB, 1, ""), fromSamples("setup_s", "s", setups).scaled(speed))
	for _, m := range res.Metrics {
		if t, ok := steal[m.Name]; ok {
			res.note("steal: the host took %.1f%% of the %.3f s of wall time behind %s", 100*t.share(), t.wall.Seconds(), m.Name)
		}
	}
	return nil
}

// freshHeap collects garbage and returns the free heap to the operating
// system before each set-up and timed operation, so every operation starts
// from the same heap state and pays for the memory it touches, as a fresh
// process would. (Collecting without returning made an operation's time
// depend on how much memory the runtime's scavenger had released while its
// predecessor ran.)
func freshHeap() { debug.FreeOSMemory() }

// millis converts durations to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// loop runs fn(i) for i = 0, 1, ... until at least minIter iterations have
// run and budget has elapsed, or fn returns false.
func loop(budget time.Duration, minIter int, fn func(i int) bool) {
	start := time.Now()
	for i := 0; i < minIter || time.Since(start) < budget; i++ {
		if !fn(i) {
			return
		}
	}
}
