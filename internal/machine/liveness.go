package machine

import (
	"sync"
	"time"

	"repro/internal/msg"
)

// LivenessConfig enables the machine's failure detector: every processor
// periodically sends a heartbeat to every peer on the reserved
// msg.TagHeartbeat tag, and a machine-wide detector declares a processor
// permanently dead once no heartbeat from it has been observed for the
// silence window.  The declaration is sticky — a processor that falls
// silent past the window is treated as lost even if (say) a partitioned
// link later heals; this is the fail-stop model checkpoint recovery
// needs, not a suspicion list.
//
// Because the detector state is shared by all ranks of the in-process
// machine, survivors trivially agree on the surviving rank set; a
// distributed deployment would need a membership consensus round here,
// which is out of scope for this engine (the paper's model is a static
// processor set — liveness exists to drive the checkpoint/restart
// experiments).
type LivenessConfig struct {
	// Interval between heartbeats each rank sends to every peer.
	// Defaults to 10ms.
	Interval time.Duration
	// Window is the silence span after which a peer is declared dead.
	// Defaults to 8×Interval.  It must be comfortably smaller than the
	// communication layer's total retry budget, so death is detected
	// before a blocked collective aborts the run.
	Window time.Duration
}

func (lc LivenessConfig) withDefaults() LivenessConfig {
	if lc.Interval <= 0 {
		lc.Interval = 10 * time.Millisecond
	}
	if lc.Window <= 0 {
		lc.Window = 8 * lc.Interval
	}
	return lc
}

// WithLiveness runs the failure detector alongside every Run on this
// machine.
func WithLiveness(lc LivenessConfig) Option {
	l := lc.withDefaults()
	return func(c *config) { c.liveness = &l }
}

// detector is the machine-wide failure detector state.  lastSeen[r] is
// only advanced by heartbeats actually received *from* r — a rank never
// vouches for itself — so a rank whose outbound messages are all lost
// (the fault injector's permanent-kill model) goes silent here exactly
// as a crashed process would.
type detector struct {
	mu       sync.Mutex
	window   time.Duration
	lastSeen []time.Time
	dead     []bool
}

func newDetector(np int, window time.Duration) *detector {
	d := &detector{
		window:   window,
		lastSeen: make([]time.Time, np),
		dead:     make([]bool, np),
	}
	now := time.Now()
	for i := range d.lastSeen {
		d.lastSeen[i] = now
	}
	return d
}

// restamp marks every rank not yet declared dead as seen now.  Run calls
// it as the heartbeats start: silence before that (work between New and
// Run, or between two Runs) is not a peer's fault.
func (d *detector) restamp() {
	now := time.Now()
	d.mu.Lock()
	for r := range d.lastSeen {
		if !d.dead[r] {
			d.lastSeen[r] = now
		}
	}
	d.mu.Unlock()
}

func (d *detector) beat(rank int) {
	d.mu.Lock()
	d.lastSeen[rank] = time.Now()
	d.mu.Unlock()
}

// sweep marks every rank silent for longer than the window as dead
// (sticky).  With a single processor there are no peers to observe
// anyone, so nothing is ever marked.
func (d *detector) sweep() {
	if len(d.lastSeen) < 2 {
		return
	}
	now := time.Now()
	d.mu.Lock()
	for r := range d.lastSeen {
		if !d.dead[r] && now.Sub(d.lastSeen[r]) > d.window {
			d.dead[r] = true
		}
	}
	d.mu.Unlock()
}

// snapshotDead returns a copy of the sticky dead mask, indexed by
// physical rank.
func (d *detector) snapshotDead() []bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]bool, len(d.dead))
	copy(out, d.dead)
	return out
}

// firstDeadOf returns the lowest physical rank among phys that the
// detector has declared dead, or -1 when all are live.
func (d *detector) firstDeadOf(phys []int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range phys {
		if d.dead[r] {
			return r
		}
	}
	return -1
}

func (d *detector) survivors() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int, 0, len(d.dead))
	for r, dd := range d.dead {
		if !dd {
			out = append(out, r)
		}
	}
	return out
}

// Survivors returns the ranks the failure detector has not declared
// dead, in rank order, or nil when the machine runs without liveness
// (WithLiveness).  After a Run aborted by a permanent rank loss, this is
// the processor set a recovery run should be sized to.
func (m *Machine) Survivors() []int {
	if m.det == nil {
		return nil
	}
	return m.det.survivors()
}

// livenessRuntime owns the heartbeat goroutines of one Run: per rank,
// one sender (heartbeats to every peer each interval) and one monitor
// (receive loop on the heartbeat tag feeding the detector).  stop()
// terminates and joins all of them — Run must not leak goroutines, even
// when it returns an error.
type livenessRuntime struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
}

func (m *Machine) startLiveness() *livenessRuntime {
	lc := *m.liveness
	m.det.restamp()
	lv := &livenessRuntime{stopCh: make(chan struct{})}
	for r := 0; r < m.np; r++ {
		ep := m.transport.Endpoint(r)

		lv.wg.Add(1)
		go func(rank int) { // sender
			defer lv.wg.Done()
			tick := time.NewTicker(lc.Interval)
			defer tick.Stop()
			for {
				select {
				case <-lv.stopCh:
					return
				case <-tick.C:
				}
				// With health enabled the heartbeat carries this rank's
				// latest cumulative work counters — the piggyback that
				// feeds the throughput scorer at zero extra messages.
				payload := m.heartbeatPayload(rank)
				for to := 0; to < m.np; to++ {
					if to == rank {
						continue
					}
					if err := ep.Send(to, msg.TagHeartbeat, payload); err != nil {
						return // transport closed: the run is over
					}
				}
			}
		}(r)

		lv.wg.Add(1)
		go func() { // monitor
			defer lv.wg.Done()
			for {
				p, err := ep.RecvTimeout(msg.AnySource, msg.TagHeartbeat, lc.Interval)
				switch {
				case err == nil:
					m.det.beat(p.From)
					m.observeHeartbeat(p.From, p.Data)
				case isClosedErr(err):
					// An SPMD abort, not a peer death: the detector keeps
					// whatever it knew, and the loop exits.
					return
				}
				m.det.sweep()
				select {
				case <-lv.stopCh:
					return
				default:
				}
			}
		}()
	}
	return lv
}

func (lv *livenessRuntime) stop() {
	close(lv.stopCh)
	lv.wg.Wait()
}
