package main

import (
	"fmt"
	"path/filepath"
	"time"

	"dsarp/internal/exp"
	"dsarp/internal/sim"
	"dsarp/internal/store"
)

// tracedRun is the per-layer run. It traces the simulated machine of the
// workload's input set, times snapshots on a warmed saturated machine, and reads the
// service layers' counters and timings from serve-mixed sessions on one
// stack, served until serveMinWarm warm requests for the warm p99, and one
// journaled fleet repetition.
func tracedRun(rep *report, wl *workloadDef, e env) error {
	if err := traceMachine(rep, wl.configs(e.seed, traceWarmup, traceMeasure)); err != nil {
		return err
	}
	if err := snapLayer(rep, e.seed); err != nil {
		return err
	}
	sp := newServePhase(rep, filepath.Join(e.dir, "serve"), e.seed)
	sp.keep, sp.minWarm = true, serveMinWarm
	if err := sp.run(0); err != nil {
		return err
	}
	err := serviceLayers(rep, sp)
	if cerr := sp.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fp := newFleetPhase(rep, filepath.Join(e.dir, "fleet"), e.seed)
	fp.journaled = true
	if err := fp.repetition(); err != nil {
		return err
	}
	rep.set("fleet.dispatch_p50_ms.computed", median(fp.dispatch["computed"]), len(fp.dispatch["computed"]))
	rep.set("fleet.dispatch_p50_ms.store", median(fp.dispatch["store"]), len(fp.dispatch["store"]))
	rep.set("fleet.makespan_cold_s", medianSeconds(fp.cold, wallOf), len(fp.cold))
	rep.set("fleet.makespan_warm_s", medianSeconds(fp.warm, wallOf), len(fp.warm))
	rep.set("fleet.affine_frac", float64(fp.affine)/float64(max(fp.dispatched, 1)), int(fp.dispatched))
	rep.set("fleet.retries", float64(fp.retries), 1)
	rep.set("ring.push_ok", fp.pushOK, 1)
	rep.set("ring.fetch_hits", fp.fetchHits, 1)
	rep.set("journal.kb", float64(fp.journalBytes)/1024, fp.reps)
	return nil
}

// traceMachine runs every config untraced through sim.Run and traced on the
// rebuilt machine, checks that both saw the same machine, and reports the
// simulator layers.
func traceMachine(rep *report, cfgs []sim.Config) error {
	var lc layerClock
	var plain, traced time.Duration
	var agg sim.Result
	var ipcSum float64
	var ipcN, channels int
	for _, cfg := range cfgs {
		start := time.Now()
		res, err := sim.Run(cfg)
		plain += time.Since(start)
		if err != nil {
			return fmt.Errorf("sim %v: %w", cfg.Mechanism, err)
		}
		rep.op(nil)
		if enc, err := exp.EncodeResult(res); err == nil {
			rep.addDigest(fmt.Sprintf("%s/%v/seed%d", cfg.Workload.Name, cfg.Mechanism, cfg.Seed), enc)
		}
		s, got, wall, err := runTraced(cfg, &lc)
		if err != nil {
			return fmt.Errorf("traced %v: %w", cfg.Mechanism, err)
		}
		traced += wall
		rep.op(traceMatches(got, res))
		channels = s.cfg.Channels

		for i, c := range res.Cores {
			ipcSum += res.IPC[i]
			ipcN++
			agg.Cores = append(agg.Cores, c)
		}
		agg.Cache = append(agg.Cache, res.Cache...)
		agg.DRAM.Add(res.DRAM)
		agg.Sched.Add(res.Sched)
		agg.MeasuredCycles += res.MeasuredCycles
		agg.SteppedCycles += res.SteppedCycles
	}
	n := len(cfgs)

	per := func(ns, calls int64) float64 { return float64(ns) / float64(max(calls, 1)) }
	cyc := max(lc.sampledCycles, 1)
	rep.set("trace.next_calls", float64(lc.nextCalls), n)
	rep.set("trace.next_ns", per(lc.nextNs, lc.nextTimed), int(lc.nextTimed))
	rep.set("cpu.tick_self_ns_per_cycle", per(lc.coreTickNs-lc.accessInCoreNs-lc.nextInCoreNs, cyc), int(cyc))
	rep.set("cache.access_calls", float64(lc.accessCalls), n)
	rep.set("cache.access_ns", per(lc.accessNs, lc.accessTimed), int(lc.accessTimed))
	rep.set("cache.tick_ns_per_cycle", per(lc.sliceTickNs, cyc), int(cyc))
	rep.set("sched.enqueue_calls", float64(lc.enqueueCalls), n)
	rep.set("sched.enqueue_ns", per(lc.enqueueNs, lc.enqueueTimed), int(lc.enqueueTimed))
	rep.set("sched.tick_self_ns_per_cycle", per(lc.ctrlTickNs-lc.policyInCtrl, cyc), int(cyc))
	rep.set("core.policy_calls", float64(lc.policyCalls), n)
	rep.set("core.policy_ns", per(lc.policyNs, lc.policyTimed), int(lc.policyTimed))
	rep.set("sim.trace_overhead", traced.Seconds()/plain.Seconds(), n)

	// Simulated-time rows: windowed sim.Result counters, deterministic.
	var retired, cpuCycles, stall, hits, accesses, misses int64
	for _, c := range agg.Cores {
		retired += c.Retired
		cpuCycles += c.CPUCycles
		stall += c.MemStallBeat
	}
	for _, c := range agg.Cache {
		hits += c.Hits
		accesses += c.Accesses
		misses += c.Misses
	}
	ratio := func(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }
	d, sc := agg.DRAM, agg.Sched
	mcycles := float64(agg.MeasuredCycles) / 1e6
	rep.set("cpu.ipc_mean", ipcSum/float64(max(ipcN, 1)), ipcN)
	rep.set("cpu.mem_stall_frac", ratio(stall, cpuCycles), ipcN)
	rep.set("cache.hit_rate", ratio(hits, accesses), ipcN)
	rep.set("cache.mpki", 1000*ratio(misses, retired), ipcN)
	rep.set("sched.read_latency_cycles", ratio(sc.ReadLatencySum, sc.ReadsServed), int(sc.ReadsServed))
	rep.set("sched.write_mode_frac", ratio(sc.WriteModeCycles, agg.MeasuredCycles*int64(channels)), n)
	rep.set("sched.refresh_slot_frac", ratio(sc.RefreshSlots, sc.RefreshSlots+sc.DemandSlots), n)
	rep.set("dram.row_hit_rate", 1-ratio(d.Acts, d.Reads+d.Writes), n)
	rep.set("dram.refab_per_mcycle", float64(d.RefABs)/mcycles, n)
	rep.set("dram.refpb_per_mcycle", float64(d.RefPBs)/mcycles, n)
	rep.set("sim.frac_stepped", ratio(agg.SteppedCycles, agg.MeasuredCycles), n)
	return nil
}

// snapReps is how many times each snapshot operation is timed.
const snapReps = 5

// snapLayer times System.Snapshot and RestoreSystem on a DSARP machine
// warmed through the timed workloads' warmup window.
func snapLayer(rep *report, seed int64) error {
	cfg := saturatedConfigs(seed, simWarmup, simMeasure)[len(satMechanisms)-1].WithDefaults()
	s, err := sim.NewSystem(cfg)
	if err != nil {
		return err
	}
	s.RunTo(cfg.Warmup)
	var data []byte
	var snapMs, restoreMs []float64
	for i := 0; i < snapReps; i++ {
		start := time.Now()
		data = s.Snapshot()
		snapMs = append(snapMs, float64(time.Since(start).Nanoseconds())/1e6)
		start = time.Now()
		_, err := sim.RestoreSystem(cfg, data)
		restoreMs = append(restoreMs, float64(time.Since(start).Nanoseconds())/1e6)
		rep.op(err)
	}
	rep.set("snap.snapshot_ms", median(snapMs), snapReps)
	rep.set("snap.restore_ms", median(restoreMs), snapReps)
	rep.set("snap.kb", float64(len(data))/1024, 1)
	return nil
}

// serviceLayers reads the exp, store and serve layers of a serving phase
// whose last stack is still open.
func serviceLayers(rep *report, run *servePhase) error {
	r, st := run.stack.runner, run.stack.st
	rep.set("exp.sims_computed", float64(r.SimsRun()), 1)
	rep.set("exp.store_hits", float64(r.StoreHits()), 1)
	rep.set("exp.ckpt_written", float64(r.CheckpointsWritten()), 1)
	rep.set("exp.ckpt_restored", float64(r.CheckpointsRestored()), 1)
	rep.set("exp.ckpt_mb_written", float64(r.CheckpointBytesWritten())/(1<<20), 1)
	ss := st.Stats()
	rep.set("store.result_mb", float64(ss.ResultBytes)/(1<<20), ss.ResultEntries)
	rep.set("store.snapshot_mb", float64(ss.SnapshotBytes)/(1<<20), ss.SnapshotEntries)
	rep.set("store.hits", float64(ss.Hits), 1)
	rep.set("store.misses", float64(ss.Misses), 1)

	var getUs, decodeUs []float64
	for k := range run.ref {
		key, err := store.ParseKey(k)
		if err != nil {
			return fmt.Errorf("served key %q: %w", k, err)
		}
		start := time.Now()
		payload, ok := st.Get(key)
		getUs = append(getUs, float64(time.Since(start).Nanoseconds())/1e3)
		if !ok {
			rep.op(fmt.Errorf("served key %s missing from the store", k))
			continue
		}
		start = time.Now()
		_, err = exp.DecodeResult(payload)
		decodeUs = append(decodeUs, float64(time.Since(start).Nanoseconds())/1e3)
		rep.op(err)
	}
	rep.set("store.get_us", median(getUs), len(getUs))
	rep.set("exp.decode_us", median(decodeUs), len(decodeUs))

	for _, src := range []string{"computed", "store", "memory", "peer"} {
		rep.set("serve.source_share."+src, float64(run.sources[src])/float64(max(run.requests, 1)), run.requests)
	}
	samples, err := scrape(run.client, run.stack.url+"/metrics")
	if err != nil {
		return err
	}
	for _, src := range []string{"computed", "store", "memory", "peer"} {
		n := int(sum(samples, "dsarp_sim_seconds_count", "source", src))
		rep.set("serve.server_p50_ms."+src, serverP50(samples, src), n)
	}
	// The histogram's smallest bucket is 1 ms, coarser than a store hit,
	// so the overhead subtracts the server's mean store-hit time instead.
	storeMs := 1000 * sum(samples, "dsarp_sim_seconds_sum", "source", "store") /
		max(sum(samples, "dsarp_sim_seconds_count", "source", "store"), 1)
	rep.set("serve.http_overhead_p50_ms", median(run.lat["warm"])-storeMs, len(run.lat["warm"]))
	p99, err := percentile(run.lat["warm"], 99)
	if err != nil {
		return fmt.Errorf("serve.warm_p99_ms: %w", err)
	}
	rep.set("serve.warm_p99_ms", p99, len(run.lat["warm"]))
	for _, class := range []string{"warm", "cold", "resume"} {
		rep.set("serve.wall_p50_ms."+class, median(run.lat[class]), len(run.lat[class]))
	}
	rep.set("serve.refused", sum(samples, "dsarp_refused_total"), 1)
	return nil
}
