package main

// counters are the public Stats() counters the per-layer metrics read,
// summed over the stack's engines, wire clients and replicated shards.
type counters struct {
	shed, retries  int64
	batches, acks  int64
	dcReads, reads int64 // TC reads served by the data component, all TC reads
}

func (s *stack) counters() counters {
	var c counters
	for _, e := range s.engines() {
		c.shed += e.Stats().Shed.Value()
	}
	for _, cl := range s.wcl {
		c.retries += cl.Stats().Retries.Value()
	}
	if s.router != nil {
		for i := 0; i < s.router.Shards(); i++ {
			cl := s.router.Cluster(i)
			rs := cl.Stats()
			c.batches += rs.BatchesShipped.Value()
			c.acks += rs.AcksOK.Value()
			ts := cl.Primary().Stats()
			c.dcReads += ts.DCReads.Value()
			c.reads += ts.DCReads.Value() + ts.VersionStoreHits.Value() + ts.ReadCacheHits.Value()
		}
	}
	return c
}

// per divides, reporting 0 when nothing was counted.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// usPer is a nanosecond total spread over n calls, in microseconds.
func usPer(ns, n int64) float64 { return per(float64(ns)/1e3, float64(n)) }

func mean(a agg) float64 { return usPer(a.ns, a.n) }

// layerMetrics derives the per-layer metrics of a traced phase. A layer
// the stack does not contain reports 0, as does the engine's self time on
// the standby stack, where the router builds its engines internally and
// no public seam sits between an engine and its store.
func layerMetrics(sp spec, t *tracer, m *measurement, before, after counters) map[string]metric {
	ops := float64(m.attempted)
	clientN, clientNs := t.sumNs(lClient)
	backendN, backendNs := t.sumNs(lBackend)
	_, storeNs := t.sumNs(lStore)
	puts := t.cell(lClient, oPut)
	scans := t.cell(lClient, oScan)
	dcWrite := t.cell(lDCPrimary, oPut)
	logWrite := t.cell(lLogPrimary, oWrite)
	wait := t.waitP99()

	out := map[string]metric{
		"engine.self_us":              {0, "us"},
		"engine.queue_wait_p99_us":    {wait / 1e3, "us"},
		"engine.shed":                 {float64(after.shed - before.shed), "count"},
		"masstree.get_us":             {mean(t.cell(lStore, oGet)), "us"},
		"masstree.put_us":             {mean(t.cell(lStore, oPut)), "us"},
		"masstree.scan_us":            {mean(t.cell(lStore, oScan)), "us"},
		"wire.self_us":                {0, "us"},
		"wire.client_reads_per_op":    {per(float64(t.clientReads.Load()), ops), "1/op"},
		"wire.client_writes_per_op":   {per(float64(t.clientWrites.Load()), ops), "1/op"},
		"wire.server_reads_per_op":    {per(float64(t.serverReads.Load()), ops), "1/op"},
		"wire.server_writes_per_op":   {per(float64(t.serverWrites.Load()), ops), "1/op"},
		"wire.bytes_per_op":           {per(float64(t.clientBytes.Load()), ops), "B/op"},
		"wire.retries_per_kop":        {per(float64(after.retries-before.retries)*1000, ops), "1/kop"},
		"repl.commit_wait_us":         {usPer(puts.ns-dcWrite.ns-logWrite.ns, puts.n), "us"},
		"repl.batches_per_put":        {per(float64(after.batches-before.batches), float64(puts.n)), "1/op"},
		"repl.acks_per_put":           {per(float64(after.acks-before.acks), float64(puts.n)), "1/op"},
		"repl.standby_apply_us":       {usPer(t.cell(lDCStandby, oPut).ns+t.cell(lLogStandby, oWrite).ns, puts.n), "us"},
		"tc.scan_self_us":             {usPer(scans.ns-t.cell(lDCPrimary, oScan).ns, scans.n), "us"},
		"tc.dc_get_frac":              {per(float64(after.dcReads-before.dcReads), float64(after.reads-before.reads)), "frac"},
		"tc.dc_write_us":              {mean(dcWrite), "us"},
		"ssd.log_writes_per_put":      {per(float64(logWrite.n), float64(puts.n)), "1/op"},
		"ssd.log_write_us":            {mean(logWrite), "us"},
		"ssd.log_bytes_per_user_byte": {per(float64(logWrite.bytes), float64(puts.n*userBytesPerKey)), "B/B"},
	}
	switch sp.stack {
	case "engine":
		out["engine.self_us"] = metric{usPer(clientNs-storeNs, clientN), "us"}
	case "wire":
		out["engine.self_us"] = metric{usPer(backendNs-storeNs, backendN), "us"}
		out["wire.self_us"] = metric{usPer(clientNs-backendNs, clientN), "us"}
	case "standby":
		// The data components are masstrees: their calls are masstree's.
		out["masstree.get_us"] = metric{mean(t.cell(lDCPrimary, oGet)), "us"}
		out["masstree.put_us"] = metric{mean(dcWrite), "us"}
		out["masstree.scan_us"] = metric{mean(t.cell(lDCPrimary, oScan)), "us"}
	}
	if sp.stack != "standby" {
		// Without a replicated TC the put-path formulas above have nothing
		// to subtract from.
		for _, k := range []string{"repl.commit_wait_us", "tc.scan_self_us"} {
			out[k] = metric{0, "us"}
		}
	}
	return out
}
