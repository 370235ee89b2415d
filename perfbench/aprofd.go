package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/guest"
	"repro/internal/trace"
)

const (
	// frameEvents is how many events a guest connection records between
	// frame flushes.
	frameEvents = 1024
	// pacedRate is the paced phase's fixed total send rate, both guests
	// together, in events per second. It must stay at most half the flood
	// rate of every workload, so the daemon keeps up and lag measures the
	// frontier, not a growing backlog.
	pacedRate = 150_000
	// minLagFrames is the fewest frames a run's paced phase sends, so the
	// p99 lag has at least ten samples beyond it.
	minLagFrames = 1000
	// pollInterval is how often the lag watcher reads the tenant's
	// watermark.
	pollInterval = 100 * time.Microsecond
	// daemonTimeout bounds every wait on the daemon.
	daemonTimeout = 60 * time.Second
)

// lockedBuffer is an io.Writer safe for the daemon's connection goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// take returns and clears what was written so far.
func (l *lockedBuffer) take() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.b.String()
	l.b.Reset()
	return s
}

// guestConn replays one guest's events through its client's stream
// recorder, flushing a frame every frameEvents events.
type guestConn struct {
	c     *daemon.Client
	env   *replayEnv
	tools []guest.Tool
	n     int // events recorded since the last frame
}

// add records one event and reports whether the current frame is full.
func (g *guestConn) add(e trace.Event) (bool, error) {
	g.env.now = e.TS
	if err := trace.Dispatch(e, g.tools); err != nil {
		return false, err
	}
	g.n++
	return g.n == frameEvents, nil
}

// flush ships the current frame.
func (g *guestConn) flush() error {
	g.n = 0
	return g.c.Flush()
}

// connect dials both guests of a fresh tenant and waits until the daemon
// has registered both hellos: a connection's watermark starts at zero, so
// the frontier cannot run past a peer that is not yet registered.
func (in *inputs) connect(tenant string) ([2]*guestConn, *daemon.Tenant, error) {
	var gs [2]*guestConn
	abort := func() {
		for _, g := range gs {
			if g != nil {
				g.c.Abort()
			}
		}
	}
	for i := range gs {
		c, err := daemon.Dial("unix", in.d.Addr(), tenant, fmt.Sprintf("guest-%d", i))
		if err != nil {
			abort()
			return gs, nil, err
		}
		env := &replayEnv{tr: in.tr}
		c.Recorder().SetAnnotations(in.w.Annotate)
		c.Recorder().Attach(env)
		gs[i] = &guestConn{c: c, env: env, tools: []guest.Tool{c.Recorder()}}
	}
	deadline := time.Now().Add(daemonTimeout)
	for {
		if t := in.d.Lookup(tenant); t != nil && len(t.Status().Connections) == 2 {
			return gs, t, nil
		}
		if time.Now().After(deadline) {
			abort()
			return gs, nil, fmt.Errorf("tenant %s: guests not registered after %v", tenant, daemonTimeout)
		}
		time.Sleep(pollInterval)
	}
}

// waitEpoch waits until the tenant's first epoch has completed: every
// connection ended and every event merged into the rolling profile.
func waitEpoch(t *daemon.Tenant) error {
	deadline := time.Now().Add(daemonTimeout)
	for t.Status().Epoch < 1 {
		if time.Now().After(deadline) {
			return fmt.Errorf("tenant %s: epoch not complete after %v", t.Name(), daemonTimeout)
		}
		time.Sleep(pollInterval)
	}
	return nil
}

// checkTenant fails the epoch unless the tenant's final rolling profile is
// byte-identical to the oracle, every event was fed, nothing was
// discarded, the tenant is not degraded and no connection was killed.
func (in *inputs) checkTenant(t *daemon.Tenant) error {
	if msg := in.log.take(); msg != "" {
		return fmt.Errorf("daemon reported: %s", msg)
	}
	raw, err := t.Feed().Get(context.Background())
	if err != nil {
		return err
	}
	var doc struct {
		Degraded  bool            `json:"degraded"`
		Events    int             `json:"events"`
		Discarded uint64          `json:"discarded"`
		Profile   json.RawMessage `json:"profile"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("tenant %s: profile document: %w", t.Name(), err)
	}
	switch {
	case doc.Degraded:
		return fmt.Errorf("tenant %s degraded", t.Name())
	case doc.Discarded > 0:
		return fmt.Errorf("tenant %s discarded %d events", t.Name(), doc.Discarded)
	case doc.Events != in.events:
		return fmt.Errorf("tenant %s fed %d events, trace has %d", t.Name(), doc.Events, in.events)
	}
	return checkExport(append([]byte(doc.Profile), '\n'), nil, in.ref)
}

// flood streams both guests as fast as they can send (a closed loop per
// connection) and returns the time from the first frame sent until the
// tenant's epoch completes.
func (in *inputs) flood(tenant string) (time.Duration, error) {
	gs, t, err := in.connect(tenant)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	var errs [2]error
	for i, g := range gs {
		wg.Add(1)
		go func(i int, g *guestConn) {
			defer wg.Done()
			errs[i] = g.sendAll(in.guests[i])
		}(i, g)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return 0, err
	}
	if err := waitEpoch(t); err != nil {
		return 0, err
	}
	d := time.Since(start)
	return d, in.checkTenant(t)
}

// sendAll records and ships a guest's whole event stream, then ends it
// cleanly. On error the connection is dropped without a footer.
func (g *guestConn) sendAll(events []trace.Event) error {
	for _, e := range events {
		full, err := g.add(e)
		if err == nil && full {
			err = g.flush()
		}
		if err != nil {
			g.c.Abort()
			return err
		}
	}
	return g.c.Close()
}

// framesPerPass is how many frames one paced epoch sends: every full
// frame of each guest, and its closing frame.
func (in *inputs) framesPerPass() int {
	n := 0
	for _, evs := range in.guests {
		n += (len(evs)-1)/frameEvents + 1
	}
	return n
}

// sentFrame is one frame of the paced phase: when the schedule said to
// send it, and the largest timestamp it delivers.
type sentFrame struct {
	due   time.Time
	maxTS uint64
}

// paced streams both guests open-loop: events are released in merged
// order at pacedRate, and a guest's frame is due when the schedule
// reaches its last event. A guest ends its stream as soon as its own last
// event is due, as a guest process does when its execution ends. It returns, per frame, the frontier lag (from
// the frame's due time until the tenant's watermark covers the frame's
// largest timestamp) and how late the generator sent it.
func (in *inputs) paced(tenant string) (lag, late []time.Duration, err error) {
	gs, t, err := in.connect(tenant)
	if err != nil {
		return nil, nil, err
	}
	sent := make(chan sentFrame, len(in.merged)/frameEvents+2*len(gs)) // one slot per frame
	watched := make(chan []time.Duration, 1)
	go func() { watched <- watchFrontier(t, sent) }()

	var lastTS [2]uint64 // each guest ends its stream right after its last event
	for i, evs := range in.guests {
		lastTS[i] = evs[len(evs)-1].TS
	}
	sendErr := func() error {
		start := time.Now()
		for k, e := range in.merged {
			gi := in.guestOf[e.Thread]
			full, err := gs[gi].add(e)
			if err != nil {
				return err
			}
			closing := e.TS == lastTS[gi]
			if !full && !closing {
				continue
			}
			due := start.Add(time.Duration(float64(k+1) / pacedRate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late = append(late, time.Since(due))
			if closing {
				err = gs[gi].c.Close()
			} else {
				err = gs[gi].flush()
			}
			if err != nil {
				return err
			}
			sent <- sentFrame{due: due, maxTS: e.TS}
		}
		return nil
	}()
	close(sent)
	if sendErr != nil {
		for _, g := range gs {
			g.c.Abort()
		}
	}
	lag = <-watched
	if sendErr != nil {
		return nil, nil, sendErr
	}
	if len(lag) != len(late) {
		return nil, nil, fmt.Errorf("tenant %s: %d of %d frames reached the frontier", tenant, len(lag), len(late))
	}
	return lag, late, in.checkTenant(t)
}

// watchFrontier polls the tenant's watermark and returns each sent frame's
// lag, in send order. Frames arrive in increasing maxTS order, so the
// pending ones form a queue. It gives up after daemonTimeout without
// progress, returning the lags measured so far.
func watchFrontier(t *daemon.Tenant, sent <-chan sentFrame) []time.Duration {
	var lag []time.Duration
	var pending []sentFrame
	open := true
	progress := time.Now()
	for open || len(pending) > 0 {
		if len(pending) == 0 {
			f, ok := <-sent
			if !ok {
				break
			}
			pending = append(pending, f)
		}
	drain:
		for open {
			select {
			case f, ok := <-sent:
				if !ok {
					open = false
					break drain
				}
				pending = append(pending, f)
			default:
				break drain
			}
		}
		st := t.Status()
		now := time.Now()
		for len(pending) > 0 && (st.Epoch > 0 || pending[0].maxTS <= st.Watermark) {
			lag = append(lag, now.Sub(pending[0].due))
			pending = pending[1:]
			progress = now
		}
		if now.Sub(progress) > daemonTimeout {
			return lag
		}
		if len(pending) > 0 {
			time.Sleep(pollInterval)
		}
	}
	return lag
}
