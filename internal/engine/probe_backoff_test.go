package engine

import (
	"testing"
	"time"
)

// TestProbeJitterBounds pins the jitter contract: every drawn interval lies
// in [d/2, d], the draws actually vary, and a fixed seed reproduces the
// same schedule.
func TestProbeJitterBounds(t *testing.T) {
	mk := func(seed int64) *Engine {
		e, err := New(Config{Store: newFakeStore(), ProbeJitterSeed: seed})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return e
	}
	e := mk(42)
	const d = 80 * time.Millisecond
	var samples []time.Duration
	distinct := false
	for i := 0; i < 1000; i++ {
		j := e.jitter(d)
		if j < d/2 || j > d {
			t.Fatalf("jitter(%v) sample %d = %v, want within [%v, %v]", d, i, j, d/2, d)
		}
		if len(samples) > 0 && j != samples[0] {
			distinct = true
		}
		samples = append(samples, j)
	}
	if !distinct {
		t.Fatal("jitter returned the same interval 1000 times; probes would synchronize")
	}
	// Same seed, same schedule: seeded sweeps stay reproducible.
	e2 := mk(42)
	for i, want := range samples {
		if got := e2.jitter(d); got != want {
			t.Fatalf("sample %d: seed 42 replay = %v, want %v", i, got, want)
		}
	}
	// A different seed must not produce the identical schedule.
	e3 := mk(43)
	same := true
	for _, want := range samples {
		if e3.jitter(d) != want {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter schedules")
	}
}

// TestProbeBackoffDoubling pins the exponential schedule: a trip arms at
// the base interval, each failed probe doubles it, and the cap holds.
func TestProbeBackoffDoubling(t *testing.T) {
	e, err := New(Config{
		Store:           newFakeStore(),
		ProbeBackoff:    10 * time.Millisecond,
		ProbeMaxBackoff: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	arm := func(reset bool, want time.Duration) {
		t.Helper()
		before := time.Now()
		e.armProbe(reset)
		after := time.Now()
		e.probeMu.Lock()
		wait := e.probeWait
		e.probeMu.Unlock()
		if wait != want {
			t.Fatalf("probeWait = %v, want %v", wait, want)
		}
		// The armed deadline honors the jitter bounds around the wait.
		at := time.Unix(0, e.probeAt.Load())
		if at.Before(before.Add(want/2)) || at.After(after.Add(want)) {
			t.Fatalf("probe armed at %v, want within [now+%v, now+%v]", at.Sub(before), want/2, want)
		}
	}
	arm(true, 10*time.Millisecond)  // fresh trip: base
	arm(false, 20*time.Millisecond) // failed probe: doubled
	arm(false, 40*time.Millisecond) // doubled again
	arm(false, 40*time.Millisecond) // capped at ProbeMaxBackoff
	arm(true, 10*time.Millisecond)  // next trip restarts at base
}
