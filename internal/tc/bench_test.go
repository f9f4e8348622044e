package tc

import (
	"fmt"
	"testing"

	"costperf/internal/ssd"
	"costperf/internal/workload"
)

func benchTC(b *testing.B) *TC {
	b.Helper()
	c, err := New(Config{DC: newBenchDC(), LogDevice: ssd.New(ssd.SamsungSSD)})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// newBenchDC avoids testing.T plumbing in benchmarks.
func newBenchDC() *memDC { return newMemDC() }

func BenchmarkCommitSingleWrite(b *testing.B) {
	c := benchTC(b)
	val := workload.ValueFor(1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := c.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Write(workload.Key(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadVersionStoreHit(b *testing.B) {
	c := benchTC(b)
	const keys = 10000
	for i := uint64(0); i < keys; i++ {
		tx, _ := c.Begin()
		tx.Write(workload.Key(i), workload.ValueFor(i, 100))
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := c.Begin()
		if _, _, err := tx.Read(workload.Key(uint64(i) % keys)); err != nil {
			b.Fatal(err)
		}
		tx.Abort()
	}
}

func BenchmarkReadThroughReadCache(b *testing.B) {
	dc := newBenchDC()
	const keys = 10000
	for i := uint64(0); i < keys; i++ {
		dc.m[string(workload.Key(i))] = workload.ValueFor(i, 100)
	}
	c, err := New(Config{DC: dc, LogDevice: ssd.New(ssd.SamsungSSD)})
	if err != nil {
		b.Fatal(err)
	}
	// Prime the read cache.
	warm, _ := c.Begin()
	for i := uint64(0); i < keys; i++ {
		if _, _, err := warm.Read(workload.Key(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := c.Begin()
		if _, _, err := tx.Read(workload.Key(uint64(i) % keys)); err != nil {
			b.Fatal(err)
		}
		tx.Abort()
	}
}

// BenchmarkTxScan measures 10-row snapshot scans over a MassTree data
// component as the version store grows: cost and allocations should stay
// flat in the number of committed keys.
func BenchmarkTxScan(b *testing.B) {
	for _, keys := range []uint64{10000, 100000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			c, err := New(Config{DC: newMassDC(), LogDevice: ssd.New(ssd.SamsungSSD)})
			if err != nil {
				b.Fatal(err)
			}
			for i := uint64(0); i < keys; {
				tx, _ := c.Begin()
				for end := i + 1000; i < end && i < keys; i++ {
					tx.Write(workload.Key(i), workload.ValueFor(i, 100))
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, _ := c.Begin()
				rows := 0
				start := workload.Key(uint64(i*7919) % (keys - 10))
				if err := tx.Scan(start, 10, func(_, _ []byte) bool { rows++; return true }); err != nil {
					b.Fatal(err)
				}
				tx.Abort()
				if rows != 10 {
					b.Fatalf("scan returned %d rows", rows)
				}
			}
		})
	}
}

func BenchmarkRecoveryReplay(b *testing.B) {
	logDev := ssd.New(ssd.SamsungSSD)
	c, err := New(Config{DC: newBenchDC(), LogDevice: logDev})
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		tx, _ := c.Begin()
		tx.Write(workload.Key(i), workload.ValueFor(i, 50))
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Recover(logDev, newBenchDC()); err != nil {
			b.Fatal(err)
		}
	}
}
