package bench

// PerLayer lists the metrics every traced run reports. Times of the
// streaming-trial stages are means per replayed trial, which every workload
// has; layer timings that only some workloads reach are shares (%) of the
// workload's operation time, so they read 0 where the layer is off the
// workload's path. README.md says which end-to-end metric each should move.
var PerLayer = []MetricSpec{
	{"wsn.trial_ms", "ms"},
	{"keys.assign_ms", "ms"},
	{"keys.index_ms", "ms"},
	{"channel.emit_ms", "ms"},
	{"rng.skip_ms", "ms"},
	{"keys.intersect_ms", "ms"},
	{"graphalgo.sink_ms", "ms"},
	{"wsn.residual_ms", "ms"},
	{"channel.edges", "count"},
	{"channel.consumed_frac", "frac"},
	{"keys.intersect_ns", "ns"},
	{"keys.secure_frac", "frac"},
	{"keys.dense_frac", "frac"},
	{"graphalgo.useful_union_frac", "frac"},
	{"wsn.deploy_pct", "%"},
	{"graph.secure_edges", "count"},
	{"graphalgo.kconn_k2_pct", "%"},
	{"graphalgo.kconn_k3_pct", "%"},
	{"experiment.overhead_pct", "%"},
	{"experiment.journal_pct", "%"},
	{"experiment.journal_bytes", "B"},
	{"montecarlo.busy_frac", "frac"},
	{"sweepserve.submit_pct", "%"},
	{"sweepserve.queue_pct", "%"},
	{"sweepserve.run_pct", "%"},
	{"sweepserve.result_pct", "%"},
	{"sweepserve.hit_ratio", "frac"},
	{"sweepserve.misses", "count"},
	{"sweepserve.journal_bytes_per_warm_job", "B"},
	{"sweepserve.restore_pct", "%"},
	{"sweepserve.heap_kb_per_job", "KB"},
	{"sweepserve.rejected", "count"},
	{"trace.overhead_frac", "frac"},
}

// layerMetrics computes the PerLayer metrics of a traced run from its spans
// and the values the workload measured itself (runner.layer).
func (r *runner) layerMetrics() map[string]Metric {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	dur, selfNs := map[string]int64{}, map[string]int64{}
	count := map[string]int64{}
	counts := map[string]int64{} // "span/key" → total
	for i := range spans {
		s := &spans[i]
		dur[s.Name] += s.dur()
		selfNs[s.Name] += self[s.ID]
		count[s.Name]++
		for k, v := range s.Counts {
			counts[s.Name+"/"+k] += v
		}
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	trials := count["keys.assign"] // replayed streaming trials
	perTrial := func(ns int64) float64 { return ratio(ns, trials) / 1e6 }
	opNet := opTimes(spans, opNames[r.Workload])
	var opNs int64
	for _, ns := range opNet {
		opNs += ns
	}
	ops := len(opNet)
	pct := func(ns int64) float64 { return 100 * ratio(ns, opNs) }

	vals := map[string]float64{
		"wsn.trial_ms":                perTrial(dur["wsn.trial"]),
		"keys.assign_ms":              perTrial(dur["keys.assign"]),
		"keys.index_ms":               perTrial(dur["keys.index"]),
		"channel.emit_ms":             perTrial(selfNs["channel.emit"]),
		"rng.skip_ms":                 perTrial(dur["rng.skip"]),
		"keys.intersect_ms":           perTrial(dur["keys.intersect"]),
		"graphalgo.sink_ms":           perTrial(dur["graphalgo.sink"]),
		"wsn.residual_ms":             perTrial(selfNs["wsn.trial"]),
		"channel.edges":               ratio(counts["channel.emit/edges"], trials),
		"channel.consumed_frac":       ratio(counts["channel.emit/edges"], counts["channel.emit/expected"]),
		"keys.intersect_ns":           ratio(dur["keys.intersect"], counts["keys.intersect/calls"]),
		"keys.secure_frac":            ratio(counts["keys.intersect/secure"], counts["keys.intersect/calls"]),
		"keys.dense_frac":             ratio(counts["keys.index/dense"], trials),
		"graphalgo.useful_union_frac": ratio(counts["graphalgo.sink/merges"], counts["graphalgo.sink/adds"]),
		"wsn.deploy_pct":              pct(dur["wsn.deploy"]),
		"graph.secure_edges":          ratio(counts["wsn.deploy/secure_edges"], count["wsn.deploy"]),
		"graphalgo.kconn_k2_pct":      pct(dur["graphalgo.kconn_k2"]),
		"graphalgo.kconn_k3_pct":      pct(dur["graphalgo.kconn_k3"]),
		"experiment.overhead_pct":     pct(selfNs["experiment.point"]),
		"experiment.journal_pct":      pct(dur["experiment.journal"]),
		"experiment.journal_bytes":    ratio(counts["experiment.journal/bytes"], int64(ops)),
		"montecarlo.busy_frac": ratio(dur["wsn.trial"]+dur["wsn.csr_trial"]+dur[replayName],
			dur["experiment.sweep"]*Workers),
		"sweepserve.submit_pct":  pct(dur["sweepserve.submit"]),
		"sweepserve.queue_pct":   pct(dur["sweepserve.queue"]),
		"sweepserve.run_pct":     pct(dur["sweepserve.run"]),
		"sweepserve.result_pct":  pct(dur["sweepserve.result"]),
		"sweepserve.restore_pct": 100 * ratio(dur["sweepserve.restore"], dur["sweepserve.restart"]),
	}
	if ops > 0 && len(r.plainOps) > 0 {
		// Plain and traced rounds run the same operations, so the ratio of
		// mean times is the ratio of the work's cost with and without spans.
		vals["trace.overhead_frac"] = float64(opNs)/float64(ops)/1e6/mean(r.plainOps) - 1
	}
	for k, v := range r.layer {
		vals[k] = v
	}
	out := map[string]Metric{}
	for _, m := range PerLayer {
		out[m.Name] = Metric{Value: vals[m.Name], Unit: m.Unit}
	}
	return out
}

func mean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
