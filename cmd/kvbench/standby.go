package main

import (
	"fmt"
	"os"
	"time"

	"costperf/internal/core"
	"costperf/internal/fault"
	"costperf/internal/obs"
	"costperf/internal/repl"
	"costperf/internal/shard"
	"costperf/internal/ssd"
)

// runStandbyMode drives the workload through a replicated pair and reports
// shipping volume, replication lag, and the cost of the extra log-shipping
// leg in the -obs table. With -failover the standby is promoted at the
// midpoint (epoch bump fences the old primary; the run continues on the
// promoted side). With -pitr-lsn the shipped log is replayed to a point in
// time after the run.
func runStandbyMode(o options) {
	pdev := ssd.SamsungSSD
	pdev.Name = "primary-log"
	sdev := ssd.SamsungSSD
	sdev.Name = "standby-log"
	primaryLog, standbyLog := ssd.New(pdev), ssd.New(sdev)

	var net *fault.NetInjector
	if o.netLoss > 0 {
		net = fault.NewNetInjector(o.seed)
		net.SetRates(o.netLoss, o.netLoss, o.netLoss)
		fmt.Printf("ship link loss: drop/dup/reorder each at %.3f\n", o.netLoss)
	}

	var reg *obs.Registry
	var tr *obs.Tracer
	if o.obs {
		reg = obs.NewRegistry()
		tr = reg.Tracer("cluster")
		primaryLog.SetObserver(tr)
		standbyLog.SetObserver(tr)
	}

	cluster, err := repl.NewCluster(repl.ClusterConfig{
		PrimaryDC: shard.NewMassDC(), PrimaryLog: primaryLog,
		StandbyDC: shard.NewMassDC(), StandbyLog: standbyLog,
		Net:        net,
		CommitWait: 2 * time.Second,
		AckTimeout: 5 * time.Millisecond,
		RetryBase:  200 * time.Microsecond,
		RetryMax:   5 * time.Millisecond,
		Poll:       50 * time.Microsecond,
		Window:     8,
		Seed:       o.seed,
		Obs:        tr,
	})
	check(err)
	defer cluster.Close()

	fmt.Printf("loading %d keys through the replicated cluster...\n", o.keys)
	load(cluster, o.keys, o.valueSize)
	if reg != nil {
		reg.ResetAll() // measure the run, not the load
	}
	ops := o.opStream()

	fmt.Printf("running %d ops (%s / %s) through the cluster", len(ops), o.mix, o.dist)
	if o.failover {
		fmt.Print(", failover at midpoint")
	}
	fmt.Println("...")

	// One worker, so the midpoint is quiesced: the standby's applied state
	// is exactly the acknowledged prefix when the PITR target is recorded.
	var t tally
	start := time.Now()
	drive(&t, cluster, ops[:len(ops)/2], 1, driveHooks{})
	ck := cluster.Standby().MarkCheckpoint()
	fmt.Printf("  midpoint checkpoint: LSN %d (ts %d)\n", ck.LSN, ck.TS)
	if o.failover {
		check(cluster.Promote())
		fmt.Printf("  promoted standby: epoch %d, old primary fenced\n", cluster.Epoch())
	}
	drive(&t, cluster, ops[len(ops)/2:], 1, driveHooks{})
	elapsed := time.Since(start)

	st := cluster.Stats()
	fmt.Println("\nresults (replicated mode, wall-clock):")
	fmt.Printf("  elapsed: %v  (%.0f ops/sec)\n", elapsed.Round(time.Microsecond),
		float64(len(ops))/elapsed.Seconds())
	fmt.Printf("  reads=%d acked writes=%d fenced=%d ship-timeouts=%d errors=%d\n",
		t.reads.Value(), t.completed.Value()-t.reads.Value(), t.shed.Value(), t.timeouts.Value(), t.fails.Value())
	fmt.Printf("  replication: %s\n", st.String())
	fmt.Printf("  primary durable LSN: %d, standby applied LSN: %d (lag %dB)\n",
		cluster.Primary().DurableLSN(), cluster.Standby().AppliedLSN(), cluster.Standby().LagBytes())
	if cluster.Promoted() {
		fmt.Printf("  failover: promotions=%d epoch=%d\n", st.Promotions.Value(), cluster.Epoch())
	}
	fmt.Printf("  primary log device: %s\n", primaryLog.Stats().String())
	fmt.Printf("  standby log device: %s\n", standbyLog.Stats().String())

	if o.pitrLSN >= 0 {
		target := o.pitrLSN
		if target == 0 {
			target = ck.LSN
		}
		dst := shard.NewMassDC()
		res, err := cluster.Standby().PITRToLSN(target, dst)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvbench: PITR to LSN %d: %v\n", target, err)
			os.Exit(1)
		}
		fmt.Printf("  PITR: replayed %d records to LSN %d (max commit ts %d), reconstructed %d keys\n",
			res.Applied, res.Replay.TruncatedAt, res.MaxTS, dst.Len())
	}

	if reg != nil {
		base := core.PaperCosts()
		fmt.Println("\nobservability (replication leg included in live costs):")
		fmt.Print(reg.Table(base))
	}
}
