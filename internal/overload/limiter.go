// Package overload is adaptive overload control: a gradient concurrency
// limiter with priority-aware shedding, replacing the engine's static
// admission semaphore.
//
// The controller is the gradient/AIMD family (TCP Vegas by way of
// Netflix's concurrency-limits): it keeps a latency floor — the store's
// no-queue service time — and compares each window's mean latency
// against it. Latency at the floor means spare capacity: the limit
// climbs by a sqrt additive probe. Latency past Tolerance times the
// floor means queueing inside the store: the limit multiplies down by
// the observed gradient. Because the signal is the *store's own*
// latency, the limit converges near the knee of the latency/concurrency
// curve instead of a hand-tuned constant — and re-converges when the
// store's capacity changes (a degraded mirror leg, a cold cache, a
// noisy neighbor).
//
// Two guards keep the controller honest:
//
//   - A vegas-style probe floor. Every ProbeInterval windows the limiter
//     serves one window at the minimum limit and re-measures the floor
//     from it. Without this, a long overload episode drags the floor
//     estimate upward until inflated latency looks normal — the
//     controller equivalent of the metastable failure it exists to
//     prevent.
//   - A Little's-law clamp. When congested, throughput × tolerated
//     latency bounds the concurrency the store can possibly use; the
//     limit never grows past a small multiple of it, so a latency
//     plateau (e.g. a store that queues internally) cannot inflate the
//     limit without bound.
//
// Admission is priority-aware (see Class): every class may run while
// the limit has room, but the wait queue is a brownout ladder — each
// class may only occupy a prefix of the queue, scans the shortest,
// ClassHigh the whole thing. As pressure rises the queue fills and the
// ladder sheds the lowest classes first, in strict order, while probes
// bypass the queue entirely.
package overload

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"costperf/internal/metrics"
)

// ErrShed is returned by Acquire when the caller's class has no queue
// room left: the operation is shed unserved. Front-ends map it onto
// their own overload sentinel (engine.ErrOverload).
var ErrShed = errors.New("overload: concurrency limit reached (shed)")

// Config configures a Limiter.
type Config struct {
	// Initial is the starting concurrency limit (default 64). In Static
	// mode it is the permanent limit.
	Initial int
	// Min is the lower clamp and the vegas probe level (default 2).
	Min int
	// Max is the upper clamp (default 4*Initial).
	Max int
	// MaxQueue bounds the wait queue for the highest class; lower
	// classes may only occupy a prefix of it (default 2*Initial).
	MaxQueue int
	// Static disables adaptation: the limit stays at Initial. The
	// brownout ladder and probe bypass still apply — Static is the old
	// semaphore, not the old blindness.
	Static bool
	// Window is the number of latency samples per gradient update
	// (default 64).
	Window int
	// Tolerance is how far past the floor the window mean may drift
	// before the limit backs off (default 2.0 — latency may double
	// before shrinking starts).
	Tolerance float64
	// Smoothing is the EWMA weight applied to limit *increases*;
	// decreases apply immediately — under collapse the limiter must
	// step down now, not after a moving average agrees (default 0.3).
	Smoothing float64
	// ProbeInterval is the number of windows between vegas floor
	// re-probes (default 16; <0 disables probing).
	ProbeInterval int
	// DepthGauge/PeakGauge, when non-nil, mirror the live queue depth
	// and its high-water mark (the engine points these at its
	// Stats.QueueDepth/QueuePeak so existing dashboards keep working).
	DepthGauge *metrics.Gauge
	PeakGauge  *metrics.Gauge
}

func (c *Config) setDefaults() {
	if c.Initial <= 0 {
		c.Initial = 64
	}
	if c.Min <= 0 {
		c.Min = 2
	}
	if c.Min > c.Initial {
		c.Min = c.Initial
	}
	if c.Max <= 0 {
		c.Max = 4 * c.Initial
	}
	if c.Max < c.Initial {
		c.Max = c.Initial
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.Initial
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Tolerance <= 1 {
		c.Tolerance = 2.0
	}
	if c.Smoothing <= 0 || c.Smoothing > 1 {
		c.Smoothing = 0.3
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 16
	}
}

// Ticket is one admitted operation's slot. It must be released exactly
// once.
type Ticket struct {
	class   Class
	queued  bool
	wait    time.Duration
	granted time.Time
}

// Queued reports whether the ticket waited in the queue, and for how
// long.
func (t Ticket) Queued() (bool, time.Duration) { return t.queued, t.wait }

// Granted is when the ticket took its slot: the Acquire's now on the
// fast path, the releasing caller's now after a queued wait.
func (t Ticket) Granted() time.Time { return t.granted }

// waiter is one queued Acquire.
type waiter struct {
	ch      chan struct{} // closed on grant
	granted time.Time
	done    bool // granted or abandoned (under l.mu)
}

// Limiter is the adaptive concurrency limiter. All methods are safe for
// concurrent use.
//
// The admission fast path takes no lock: while nobody is queued, Acquire
// claims a slot with a compare-and-swap on inflight below the published
// effective limit, and Release gives it back with an atomic add. l.mu is
// taken only to queue, to shed, to grant queued waiters, and to close an
// adaptive window. A waiter re-tries the grant right after it enqueues,
// and a releaser checks queued right after it frees its slot, so one of
// the two always sees the other: no release can strand a waiter.
type Limiter struct {
	cfg   Config
	stats metrics.LimiterStats

	inflight atomic.Int64 // slots held
	queued   atomic.Int64 // waiters in qs; changes only under mu
	eff      atomic.Int64 // effLimitLocked, republished under mu

	// Window accumulation, lock-free: a sample adds its latency and
	// count, and the sample that fills the window closes it under mu. A
	// sample racing the close may land its latency and its count in
	// adjacent windows.
	winSum   atomic.Int64 // ns
	winN     atomic.Int64
	winStart atomic.Int64 // unix ns of the window's first sample

	mu    sync.Mutex
	limit float64 // live limit (clamped [Min, Max])
	qs    [numClasses][]*waiter

	// Gradient state (under mu): the latency floor and the vegas probe
	// cycle.
	floor      float64 // ns; 0 = unlearned
	lastSample float64 // ns; last window mean
	windows    int     // completed windows, drives the probe cadence
	probing    bool    // current window runs at Min to re-measure the floor
}

// NewLimiter builds a limiter.
func NewLimiter(cfg Config) *Limiter {
	cfg.setDefaults()
	l := &Limiter{cfg: cfg, limit: float64(cfg.Initial)}
	l.eff.Store(int64(cfg.Initial))
	l.stats.Limit.Set(int64(cfg.Initial))
	return l
}

// Stats returns the limiter's meters.
func (l *Limiter) Stats() *metrics.LimiterStats { return &l.stats }

// Adaptive reports whether the limit is learned by the gradient (false:
// a static semaphore at Config.Initial).
func (l *Limiter) Adaptive() bool { return !l.cfg.Static }

// Limit returns the live concurrency limit.
func (l *Limiter) Limit() int { return int(l.eff.Load()) }

// effLimitLocked is the limit admission actually enforces right now: the
// gradient's limit, except during a vegas probe window, which serves at
// Min so the floor measurement sees an uncontended store.
func (l *Limiter) effLimitLocked() int {
	if l.probing {
		return l.cfg.Min
	}
	n := int(l.limit)
	if n < l.cfg.Min {
		n = l.cfg.Min
	}
	return n
}

// queueBound is the brownout ladder: the queue prefix each class may
// occupy. Scans shed once the queue is a quarter full, low-priority ops
// at half, and only ClassHigh may fill it — so as pressure rises the
// classes shed strictly lowest-first.
func (l *Limiter) queueBound(c Class) int64 {
	switch c {
	case ClassScan:
		return int64(l.cfg.MaxQueue / 4)
	case ClassLow:
		return int64(l.cfg.MaxQueue / 2)
	default:
		return int64(l.cfg.MaxQueue)
	}
}

// shedLocked meters one shed by class.
func (l *Limiter) shedLocked(c Class) {
	switch c {
	case ClassScan:
		l.stats.ShedScan.Inc()
	case ClassLow:
		l.stats.ShedLow.Inc()
	case ClassNormal:
		l.stats.ShedNormal.Inc()
	default:
		l.stats.ShedHigh.Inc()
	}
}

// WouldShed reports whether an Acquire at class would be shed right
// now — the cheap pre-flight the scatter-gather path uses to fail a hot
// shard's scan leg fast instead of feeding its queue.
func (l *Limiter) WouldShed(c Class) bool {
	if c == ClassProbe {
		return false
	}
	return l.inflight.Load() >= l.eff.Load() && l.queued.Load() >= l.queueBound(c)
}

// tryAdmit claims a slot if one is free: inflight below the effective
// limit. With mayJumpQueue false it also refuses while anyone is queued,
// so a fast-path arrival cannot overtake a waiter.
func (l *Limiter) tryAdmit(mayJumpQueue bool) bool {
	for {
		if !mayJumpQueue && l.queued.Load() != 0 {
			return false
		}
		n := l.inflight.Load()
		if n >= l.eff.Load() {
			return false
		}
		if l.inflight.CompareAndSwap(n, n+1) {
			l.grantStats()
			return true
		}
	}
}

// Acquire admits one operation at the given class: immediately while
// the limit has room, after queueing when it does not, never for a
// request past its class's queue bound (ErrShed). now is the caller's
// clock reading; a fast-path grant is stamped with it, so Acquire itself
// reads no clock. A ctx that ends while queued returns ctx.Err().
// ClassProbe bypasses both the limit and the queue. The returned ticket
// must be Released exactly once.
func (l *Limiter) Acquire(ctx context.Context, c Class, now time.Time) (Ticket, error) {
	if c == ClassProbe {
		// Probes are how a degraded store proves recovery; they can not
		// be starved by load. Bypass the limit (the breaker allows one
		// probe at a time, so the overshoot is bounded at 1).
		l.inflight.Add(1)
		l.grantStats()
		return Ticket{class: c, granted: now}, nil
	}
	if l.tryAdmit(false) {
		return Ticket{class: c, granted: now}, nil
	}
	l.mu.Lock()
	if l.queued.Load() >= l.queueBound(c) {
		l.shedLocked(c)
		l.mu.Unlock()
		return Ticket{}, ErrShed
	}
	w := &waiter{ch: make(chan struct{})}
	l.qs[c] = append(l.qs[c], w)
	l.queued.Add(1)
	// A release that freed its slot before queued rose saw no waiter and
	// took no lock: grant what is free now, or that slot strands us.
	l.grantLocked(now)
	l.mu.Unlock()

	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-w.ch:
		return Ticket{class: c, queued: true, wait: w.granted.Sub(now), granted: w.granted}, nil
	case <-ctx.Done():
		l.mu.Lock()
		if w.done {
			// The grant raced our abort and won: the slot is ours. Run
			// with it — the store call will see the dead ctx immediately,
			// and the release path stays uniform.
			l.mu.Unlock()
			return Ticket{class: c, queued: true, wait: w.granted.Sub(now), granted: w.granted}, nil
		}
		w.done = true
		for i, qw := range l.qs[c] {
			if qw == w {
				l.qs[c] = append(l.qs[c][:i], l.qs[c][i+1:]...)
				break
			}
		}
		l.queued.Add(-1)
		l.depthStatsLocked()
		l.mu.Unlock()
		return Ticket{}, ctx.Err()
	}
}

// Release returns a ticket's slot at the caller's clock reading now,
// feeds the gradient controller the ticket's latency (when sample is
// true and the limiter is adaptive), and grants queued waiters the freed
// capacity. It takes l.mu only when a waiter is queued or the sample
// closes a window.
func (l *Limiter) Release(t Ticket, now time.Time, sample bool) {
	l.inflight.Add(-1)
	l.stats.Inflight.Add(-1)
	closes := sample && !l.cfg.Static && t.class != ClassProbe &&
		l.observe(now.Sub(t.granted).Nanoseconds(), now)
	if !closes && l.queued.Load() == 0 {
		return
	}
	l.mu.Lock()
	if closes {
		l.closeWindowLocked(now)
	}
	l.grantLocked(now)
	l.mu.Unlock()
}

// grantLocked hands free capacity to queued waiters, highest class
// first, FIFO within a class, stamping each grant with now.
func (l *Limiter) grantLocked(now time.Time) {
	for c := numClasses - 1; c >= 0 && l.queued.Load() > 0; {
		if len(l.qs[c]) == 0 {
			c--
			continue
		}
		if !l.tryAdmit(true) {
			break
		}
		w := l.qs[c][0]
		l.qs[c] = l.qs[c][1:]
		l.queued.Add(-1)
		w.done = true
		w.granted = now
		close(w.ch)
	}
	l.depthStatsLocked()
}

func (l *Limiter) grantStats() {
	l.stats.Admitted.Inc()
	l.stats.Inflight.Add(1)
}

func (l *Limiter) depthStatsLocked() {
	d := l.queued.Load()
	if l.cfg.DepthGauge != nil {
		l.cfg.DepthGauge.Set(d)
	}
	if l.cfg.PeakGauge != nil {
		l.cfg.PeakGauge.Max(d)
	}
}

// observe accumulates one latency sample and reports whether it filled
// the window, in which case the caller must close it under l.mu.
func (l *Limiter) observe(ns int64, now time.Time) bool {
	l.winSum.Add(ns)
	n := l.winN.Add(1)
	if n == 1 {
		l.winStart.Store(now.UnixNano())
	}
	return n == int64(l.cfg.Window)
}

// closeWindowLocked runs a gradient update over the window that just
// filled and starts the next one.
func (l *Limiter) closeWindowLocked(now time.Time) {
	start := l.winStart.Load()
	n := l.winN.Swap(0)
	sum := l.winSum.Swap(0)
	if n <= 0 {
		return
	}
	thr := 0.0
	if elapsed := float64(now.UnixNano()-start) / 1e9; elapsed > 0 {
		thr = float64(n) / elapsed
	}
	l.windows++
	l.updateLocked(float64(sum)/float64(n), thr)
}

// updateLocked is one gradient step over a completed window.
func (l *Limiter) updateLocked(sample, thr float64) {
	if sample <= 0 {
		return
	}
	l.lastSample = sample

	if l.probing {
		// The probe window ran at Min: its mean is the closest thing to
		// the store's true no-queue latency we can measure live. Reset
		// the floor to it — this is what un-learns a floor inflated by a
		// long overload episode.
		l.floor = sample
		l.probing = false
	} else if l.floor == 0 || sample < l.floor {
		l.floor = sample
	}
	l.stats.FloorMicros.Set(int64(l.floor / 1e3))

	prev := l.limit
	// gradient <= 1: how far the window's latency sits past the
	// tolerated band. At or under tolerance the limit grows by the
	// additive sqrt probe; past it the limit multiplies down.
	g := l.cfg.Tolerance * l.floor / sample
	if g > 1 {
		g = 1
	}
	if g < 0.5 {
		g = 0.5
	}
	next := l.limit*g + math.Sqrt(l.limit)
	congested := sample > l.cfg.Tolerance*l.floor
	if congested && thr > 0 {
		// Little's law: a store completing thr ops/s at the tolerated
		// latency can use at most thr * (tol*floor) concurrency; 2x
		// headroom, and never below Min. Only applied when congested —
		// an idle window's throughput says nothing about capacity.
		little := 2 * thr * (l.cfg.Tolerance * l.floor / 1e9)
		if little < float64(l.cfg.Min) {
			little = float64(l.cfg.Min)
		}
		if next > little {
			next = little
		}
	}
	if next > prev {
		// Increases are smoothed; decreases act immediately.
		next = prev + l.cfg.Smoothing*(next-prev)
	}
	if next < float64(l.cfg.Min) {
		next = float64(l.cfg.Min)
	}
	if next > float64(l.cfg.Max) {
		next = float64(l.cfg.Max)
	}
	l.limit = next
	if int(next) > int(prev) {
		l.stats.LimitUps.Inc()
	} else if int(next) < int(prev) {
		l.stats.LimitDowns.Inc()
	}

	// Arm the next vegas probe window.
	if l.cfg.ProbeInterval > 0 && l.windows%l.cfg.ProbeInterval == 0 {
		l.probing = true
	}
	eff := int64(l.effLimitLocked())
	l.eff.Store(eff)
	l.stats.Limit.Set(eff)
}

// RetryAfter is the advisory backoff for a shed caller: roughly how
// long the current backlog needs to drain at the current service rate,
// clamped to a sane band. The wire server forwards it inside
// StatusOverload responses; honoring it is what turns a thundering-herd
// retry into a paced one.
func (l *Limiter) RetryAfter() time.Duration {
	l.mu.Lock()
	per := l.lastSample
	if per == 0 {
		per = l.floor
	}
	l.mu.Unlock()
	backlog := l.inflight.Load() + l.queued.Load()
	lim := l.eff.Load()
	if per == 0 {
		per = 1e6 // unlearned: assume 1ms service time
	}
	if lim < 1 {
		lim = 1
	}
	d := time.Duration(per * float64(backlog+1) / float64(lim))
	const lo, hi = 100 * time.Microsecond, 100 * time.Millisecond
	if d < lo {
		d = lo
	}
	if d > hi {
		d = hi
	}
	l.stats.RetryAfterMicros.Set(int64(d / time.Microsecond))
	return d
}
