package overload

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClassParseAndString(t *testing.T) {
	for _, c := range []Class{ClassScan, ClassLow, ClassNormal, ClassHigh} {
		got, ok := ParseClass(c.String())
		if !ok || got != c {
			t.Fatalf("ParseClass(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := ParseClass("probe"); ok {
		t.Fatal("ParseClass must refuse to mint probe class from config")
	}
	if _, ok := ParseClass(""); ok {
		t.Fatal("ParseClass accepted the empty string")
	}
	if c, ok := ParseClass("nope"); ok || c != ClassNormal {
		t.Fatalf("unknown class = %v, %v; want ClassNormal, false", c, ok)
	}
}

func TestClassContext(t *testing.T) {
	ctx := context.Background()
	if got := ClassFrom(ctx, ClassNormal); got != ClassNormal {
		t.Fatalf("untagged ctx class = %v", got)
	}
	if got := ClassFrom(nil, ClassScan); got != ClassScan {
		t.Fatalf("nil ctx class = %v", got)
	}
	ctx = WithClass(ctx, ClassHigh)
	if got := ClassFrom(ctx, ClassNormal); got != ClassHigh {
		t.Fatalf("tagged ctx class = %v, want high", got)
	}
}

func TestAcquireFastPath(t *testing.T) {
	l := NewLimiter(Config{Initial: 2, Static: true})
	ctx := context.Background()
	t1, err := l.Acquire(ctx, ClassNormal, time.Now())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if q, _ := t1.Queued(); q {
		t.Fatal("fast-path acquire reported queued")
	}
	l.Release(t1, time.Now(), true)
	if got := l.Stats().Admitted.Value(); got != 1 {
		t.Fatalf("Admitted = %d, want 1", got)
	}
	if got := l.Stats().Inflight.Value(); got != 0 {
		t.Fatalf("Inflight = %d after release, want 0", got)
	}
}

// TestBrownoutLadder pins the shedding order: with the limit saturated,
// each class sheds once the queue reaches its prefix bound — scans at a
// quarter, low at half, normal and high only when the queue is full —
// and probes never shed at all.
func TestBrownoutLadder(t *testing.T) {
	const q = 8
	l := NewLimiter(Config{Initial: 1, MaxQueue: q, Static: true})
	ctx := context.Background()

	// Saturate the limit.
	hold, err := l.Acquire(ctx, ClassNormal, time.Now())
	if err != nil {
		t.Fatalf("hold: %v", err)
	}

	// Fill the queue to scan's bound (q/4 = 2) with waiters. Each waiter
	// releases its own ticket once granted (grants go highest-class-first,
	// so the main goroutine cannot drain them in park order).
	var wg sync.WaitGroup
	park := func(n int, c Class) chan error {
		ch := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tk, err := l.Acquire(ctx, c, time.Now())
				if err == nil {
					l.Release(tk, time.Now(), false)
				}
				ch <- err
			}()
		}
		return ch
	}
	waitQueued := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := l.queued.Load(); n == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue depth never reached %d", want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	scans := park(2, ClassScan)
	waitQueued(2)
	// Scan bound (2) reached: the next scan sheds, lower classes do not.
	if _, err := l.Acquire(ctx, ClassScan, time.Now()); !errors.Is(err, ErrShed) {
		t.Fatalf("scan past bound = %v, want ErrShed", err)
	}
	lows := park(2, ClassLow)
	waitQueued(4)
	// Low bound (4) reached: low sheds, normal still queues.
	if _, err := l.Acquire(ctx, ClassLow, time.Now()); !errors.Is(err, ErrShed) {
		t.Fatalf("low past bound = %v, want ErrShed", err)
	}
	normals := park(4, ClassNormal)
	waitQueued(8)
	// Queue full: everything but probes sheds.
	if _, err := l.Acquire(ctx, ClassNormal, time.Now()); !errors.Is(err, ErrShed) {
		t.Fatalf("normal past bound = %v, want ErrShed", err)
	}
	if _, err := l.Acquire(ctx, ClassHigh, time.Now()); !errors.Is(err, ErrShed) {
		t.Fatalf("high past full queue = %v, want ErrShed", err)
	}
	probe, err := l.Acquire(ctx, ClassProbe, time.Now())
	if err != nil {
		t.Fatalf("probe through a full queue = %v, want admission", err)
	}
	l.Release(probe, time.Now(), false)

	st := l.Stats()
	if st.ShedScan.Value() != 1 || st.ShedLow.Value() != 1 ||
		st.ShedNormal.Value() != 1 || st.ShedHigh.Value() != 1 {
		t.Fatalf("shed by class = %s", st.String())
	}

	// Drain: everyone queued eventually runs.
	l.Release(hold, time.Now(), false)
	wg.Wait()
	for _, ch := range []chan error{scans, lows, normals} {
		for i := 0; i < cap(ch); i++ {
			if err := <-ch; err != nil {
				t.Fatalf("queued acquire failed: %v", err)
			}
		}
	}
	if got := st.Inflight.Value(); got != 0 {
		t.Fatalf("Inflight after drain = %d", got)
	}
}

// TestPriorityDequeueOrder pins that freed capacity goes to the highest
// queued class first.
func TestPriorityDequeueOrder(t *testing.T) {
	l := NewLimiter(Config{Initial: 1, MaxQueue: 8, Static: true})
	ctx := context.Background()
	hold, err := l.Acquire(ctx, ClassNormal, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan Class, 3)
	var wg sync.WaitGroup
	enqueue := func(c Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := l.Acquire(ctx, c, time.Now())
			if err != nil {
				t.Errorf("acquire %v: %v", c, err)
				return
			}
			order <- c
			l.Release(tk, time.Now(), false)
		}()
		// Ensure deterministic arrival order: scan first, then normal,
		// then high.
		deadline := time.Now().Add(5 * time.Second)
		for {
			l.mu.Lock()
			n := len(l.qs[c])
			l.mu.Unlock()
			if n == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%v never queued", c)
			}
			time.Sleep(time.Millisecond)
		}
	}
	enqueue(ClassScan)
	enqueue(ClassNormal)
	enqueue(ClassHigh)
	l.Release(hold, time.Now(), false)
	wg.Wait()
	close(order)
	var got []Class
	for c := range order {
		got = append(got, c)
	}
	want := []Class{ClassHigh, ClassNormal, ClassScan}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", got, want)
		}
	}
}

// TestQueuedAbort pins the ctx contract: a context that dies while
// queued surfaces its own error and leaves the queue clean.
func TestQueuedAbort(t *testing.T) {
	l := NewLimiter(Config{Initial: 1, MaxQueue: 4, Static: true})
	hold, err := l.Acquire(context.Background(), ClassNormal, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := l.Acquire(ctx, ClassNormal, time.Now()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued abort = %v, want DeadlineExceeded", err)
	}
	if depth := l.queued.Load(); depth != 0 {
		t.Fatalf("queue depth after abort = %d, want 0", depth)
	}
	l.Release(hold, time.Now(), false)
	// The limiter still works after the abandoned waiter.
	tk, err := l.Acquire(context.Background(), ClassNormal, time.Now())
	if err != nil {
		t.Fatalf("acquire after abort: %v", err)
	}
	l.Release(tk, time.Now(), false)
}

// drive feeds the controller synthetic windows directly: a white-box
// shortcut that makes gradient behavior deterministic.
func drive(l *Limiter, windows int, sampleNs, thr float64) {
	for i := 0; i < windows; i++ {
		l.mu.Lock()
		l.windows++
		l.updateLocked(sampleNs, thr)
		l.mu.Unlock()
	}
}

// TestGradientShrinksUnderCongestion pins the AIMD down direction:
// latency far past tolerance*floor multiplies the limit down toward Min.
func TestGradientShrinksUnderCongestion(t *testing.T) {
	l := NewLimiter(Config{Initial: 64, Min: 2, Max: 256, ProbeInterval: -1})
	// Learn a 100us floor.
	drive(l, 1, 100e3, 1000)
	// Then 10x-inflated latency at modest throughput: the limit must
	// collapse toward what Little's law supports (2 * 1000/s * 200us = 0.4
	// -> clamped to Min).
	drive(l, 20, 1e6, 1000)
	if got := l.Limit(); got > 8 {
		t.Fatalf("limit after sustained congestion = %d, want near Min", got)
	}
	if l.Stats().LimitDowns.Value() == 0 {
		t.Fatal("no down updates recorded")
	}
}

// TestGradientGrowsWhenHealthy pins the additive up direction: latency
// at the floor grows the limit by ~sqrt(limit) per window.
func TestGradientGrowsWhenHealthy(t *testing.T) {
	l := NewLimiter(Config{Initial: 4, Min: 2, Max: 256, ProbeInterval: -1})
	drive(l, 1, 100e3, 1e5)
	before := l.Limit()
	drive(l, 30, 100e3, 1e5)
	after := l.Limit()
	if after <= before {
		t.Fatalf("limit did not grow under healthy latency: %d -> %d", before, after)
	}
	if after > 256 {
		t.Fatalf("limit %d exceeded Max", after)
	}
	if l.Stats().LimitUps.Value() == 0 {
		t.Fatal("no up updates recorded")
	}
}

// TestVegasProbeResetsFloor pins the probe cycle: after ProbeInterval
// windows the limiter serves one window at Min, and that window's
// sample resets (not just lowers) the floor — un-learning an inflated
// baseline.
func TestVegasProbeResetsFloor(t *testing.T) {
	l := NewLimiter(Config{Initial: 16, Min: 2, Max: 64, ProbeInterval: 4})
	drive(l, 3, 200e3, 1e4)
	if l.Limit() == 2 {
		t.Fatal("probing engaged too early")
	}
	drive(l, 1, 200e3, 1e4) // 4th window arms the probe
	if got := l.Limit(); got != 2 {
		t.Fatalf("probe window effective limit = %d, want Min", got)
	}
	// The probe window measures a HIGHER latency than the learned floor
	// (the store got slower); a min-tracking floor would ignore it, the
	// vegas reset must adopt it.
	drive(l, 1, 500e3, 1e4)
	l.mu.Lock()
	floor := l.floor
	probing := l.probing
	l.mu.Unlock()
	if probing {
		t.Fatal("probe window did not clear")
	}
	if floor != 500e3 {
		t.Fatalf("floor after probe = %v, want 500e3 (reset, not min)", floor)
	}
}

// TestStaticModeDoesNotAdapt pins Static: the limit stays at Initial no
// matter what latency does.
func TestStaticModeDoesNotAdapt(t *testing.T) {
	l := NewLimiter(Config{Initial: 8, Static: true})
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		tk, err := l.Acquire(ctx, ClassNormal, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		l.Release(tk, time.Now(), true)
	}
	if got := l.Limit(); got != 8 {
		t.Fatalf("static limit = %d, want 8", got)
	}
	if l.Stats().LimitUps.Value()+l.Stats().LimitDowns.Value() != 0 {
		t.Fatal("static limiter recorded gradient updates")
	}
}

func TestWouldShed(t *testing.T) {
	l := NewLimiter(Config{Initial: 1, MaxQueue: 4, Static: true})
	ctx := context.Background()
	if l.WouldShed(ClassScan) {
		t.Fatal("idle limiter would shed")
	}
	hold, _ := l.Acquire(ctx, ClassNormal, time.Now())
	// Limit saturated, queue empty: scan bound is 4/4 = 1 > 0, so a scan
	// would still queue; but once one waiter parks, scans shed.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk, err := l.Acquire(ctx, ClassNormal, time.Now())
		if err == nil {
			l.Release(tk, time.Now(), false)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !l.WouldShed(ClassScan) {
		if time.Now().After(deadline) {
			t.Fatal("WouldShed(scan) never became true")
		}
		time.Sleep(time.Millisecond)
	}
	if l.WouldShed(ClassProbe) {
		t.Fatal("WouldShed(probe) must always be false")
	}
	if l.WouldShed(ClassHigh) {
		t.Fatal("high would shed with a near-empty queue")
	}
	l.Release(hold, time.Now(), false)
	wg.Wait()
}

func TestRetryAfterBounds(t *testing.T) {
	l := NewLimiter(Config{Initial: 4})
	d := l.RetryAfter()
	if d < 100*time.Microsecond || d > 100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want within [100us, 100ms]", d)
	}
	// A huge backlog clamps at the cap.
	drive(l, 1, 50e6, 10)
	l.inflight.Store(1000)
	if d := l.RetryAfter(); d != 100*time.Millisecond {
		t.Fatalf("RetryAfter under backlog = %v, want 100ms cap", d)
	}
	l.inflight.Store(0)
	if l.Stats().RetryAfterMicros.Value() == 0 {
		t.Fatal("RetryAfterMicros gauge never set")
	}
}

// TestLimiterConcurrentHammer drives mixed classes through a tiny
// adaptive limiter under -race: no deadlock, accounting consistent, and
// clean final state.
func TestLimiterConcurrentHammer(t *testing.T) {
	l := NewLimiter(Config{Initial: 4, Min: 2, Max: 16, MaxQueue: 8, Window: 16})
	var wg sync.WaitGroup
	var granted, shed atomicCount
	classes := []Class{ClassScan, ClassLow, ClassNormal, ClassHigh}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				c := classes[(w+i)%len(classes)]
				ctx := context.Background()
				if i%7 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Microsecond)
					defer cancel()
				}
				tk, err := l.Acquire(ctx, c, time.Now())
				if err != nil {
					if !errors.Is(err, ErrShed) && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("acquire: %v", err)
					}
					if errors.Is(err, ErrShed) {
						shed.inc()
					}
					continue
				}
				granted.inc()
				l.Release(tk, time.Now(), true)
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Admitted.Value() != granted.v() {
		t.Fatalf("Admitted = %d, granted tickets = %d", st.Admitted.Value(), granted.v())
	}
	if st.ShedTotal() != shed.v() {
		t.Fatalf("ShedTotal = %d, callers saw %d", st.ShedTotal(), shed.v())
	}
	if st.Inflight.Value() != 0 {
		t.Fatalf("Inflight after drain = %d", st.Inflight.Value())
	}
	depth := l.queued.Load()
	l.mu.Lock()
	lim := l.limit
	l.mu.Unlock()
	if depth != 0 {
		t.Fatalf("queue depth after drain = %d", depth)
	}
	if lim < 2 || lim > 16 {
		t.Fatalf("limit %v escaped [Min, Max]", lim)
	}
}

type atomicCount struct {
	mu sync.Mutex
	n  int64
}

func (c *atomicCount) inc() { c.mu.Lock(); c.n++; c.mu.Unlock() }
func (c *atomicCount) v() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TestConfigDefaults pins the zero-value normalization.
func TestConfigDefaults(t *testing.T) {
	var c Config
	c.setDefaults()
	if c.Initial != 64 || c.Min != 2 || c.Max != 256 || c.MaxQueue != 128 {
		t.Fatalf("defaults = %+v", c)
	}
	c2 := Config{Initial: 4, Min: 100}
	c2.setDefaults()
	if c2.Min != 4 {
		t.Fatalf("Min above Initial = %d, want clamped to Initial", c2.Min)
	}
	_ = fmt.Sprintf("%v", ClassProbe) // String coverage for probe
}

// underWatchdog runs body and fails the test with every goroutine's
// stack if it has not returned within d: a lost wakeup shows up as a
// stuck waiter, not as a hung test binary.
func underWatchdog(t *testing.T, d time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("watchdog: not done after %v\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// TestStaticLimitNeverExceeded hammers a static limit of 2 from 8
// goroutines through the CAS fast path and the queue: at no point may
// more than 2 tickets be held.
func TestStaticLimitNeverExceeded(t *testing.T) {
	const workers, rounds, limit = 8, 10000, 2
	l := NewLimiter(Config{Initial: limit, MaxQueue: workers, Static: true})
	var cur, peak atomic.Int64
	underWatchdog(t, time.Minute, func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := context.Background()
				for i := 0; i < rounds; i++ {
					tk, err := l.Acquire(ctx, ClassNormal, time.Now())
					if err != nil {
						t.Errorf("acquire: %v", err)
						return
					}
					n := cur.Add(1)
					for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
					}
					cur.Add(-1)
					l.Release(tk, time.Now(), false)
				}
			}()
		}
		wg.Wait()
	})
	if p := peak.Load(); p > limit {
		t.Fatalf("peak concurrency %d exceeds the limit %d", p, limit)
	}
	if got := l.Stats().Admitted.Value(); got != workers*rounds {
		t.Fatalf("Admitted = %d, want %d", got, workers*rounds)
	}
	if in, q := l.Stats().Inflight.Value(), l.queued.Load(); in != 0 || q != 0 {
		t.Fatalf("after drain: inflight %d, queued %d", in, q)
	}
}

// TestReleaseRacingEnqueue is the lost-wakeup check: with a limit of 1,
// the holder releases while a second goroutine enqueues behind it. The
// releaser may see no waiter and take no lock, so the waiter must find
// the freed slot itself; every waiter must be granted.
func TestReleaseRacingEnqueue(t *testing.T) {
	l := NewLimiter(Config{Initial: 1, Static: true})
	ctx := context.Background()
	underWatchdog(t, time.Minute, func() {
		for i := 0; i < 10000; i++ {
			hold, err := l.Acquire(ctx, ClassNormal, time.Now())
			if err != nil {
				t.Errorf("round %d: hold: %v", i, err)
				return
			}
			ready := make(chan struct{})
			granted := make(chan Ticket, 1)
			go func() {
				close(ready)
				tk, err := l.Acquire(ctx, ClassNormal, time.Now())
				if err != nil {
					t.Errorf("round %d: waiter: %v", i, err)
				}
				granted <- tk
			}()
			<-ready
			l.Release(hold, time.Now(), false)
			l.Release(<-granted, time.Now(), false)
		}
	})
	if in, q := l.Stats().Inflight.Value(), l.queued.Load(); in != 0 || q != 0 {
		t.Fatalf("after drain: inflight %d, queued %d", in, q)
	}
}

// TestCancelRacingGrant races a queued waiter's context cancel against
// the release that grants it. Either side may win — the waiter then
// holds a ticket it must release, or leaves the queue — but the limiter
// must end with nothing in flight and nothing queued.
func TestCancelRacingGrant(t *testing.T) {
	l := NewLimiter(Config{Initial: 1, Static: true})
	var won, lost int
	underWatchdog(t, time.Minute, func() {
		for i := 0; i < 1000; i++ {
			hold, err := l.Acquire(context.Background(), ClassNormal, time.Now())
			if err != nil {
				t.Errorf("round %d: hold: %v", i, err)
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			res := make(chan error, 1)
			go func() {
				tk, err := l.Acquire(ctx, ClassNormal, time.Now())
				if err == nil {
					l.Release(tk, time.Now(), false)
				}
				res <- err
			}()
			for l.queued.Load() != 1 {
				runtime.Gosched()
			}
			// Both orders: a cancel that wakes the waiter just before the
			// release grants it, and a grant just before the cancel.
			if i%2 == 0 {
				cancel()
				l.Release(hold, time.Now(), false)
			} else {
				l.Release(hold, time.Now(), false)
				cancel()
			}
			switch err := <-res; {
			case err == nil:
				won++
			case errors.Is(err, context.Canceled):
				lost++
			default:
				t.Errorf("round %d: waiter: %v", i, err)
				return
			}
		}
	})
	if in, q := l.Stats().Inflight.Value(), l.queued.Load(); in != 0 || q != 0 {
		t.Fatalf("after %d grants and %d cancels: inflight %d, queued %d", won, lost, in, q)
	}
}
