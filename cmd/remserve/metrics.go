package main

import (
	"net/http"
	"strings"

	"rem"
	"rem/internal/obs"
)

// serverMetrics is the remserve service registry: every counter the
// hand-rolled /metrics JSON used to carry as a plain int now lives as
// an obs handle, so one registry feeds both the backward-compatible
// JSON view and the Prometheus text exposition. All writes happen
// under server.mu — that lock is the registry's single-writer
// guarantee — except during single-threaded boot recovery.
type serverMetrics struct {
	reg *obs.Registry

	started, completed, canceled, failed *obs.Counter
	shed, recovered, resumed             *obs.Counter
	journalErrors, heartbeatMisses       *obs.Counter
	epochs, epochAllocs                  *obs.Counter
	epochWall                            *obs.Histogram

	activeRuns, activeUEs        *obs.Gauge
	handovers, failures, blocked *obs.Gauge
	lastEpochNs, lastEpochAllocs *obs.Gauge
	resumeEpoch                  *obs.Gauge
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	reg.Counter("remserve_runs_started_total", "Fleet runs admitted.")
	reg.Counter("remserve_runs_completed_total", "Fleet runs finished successfully.")
	reg.Counter("remserve_runs_canceled_total", "Fleet runs canceled by the client.")
	reg.Counter("remserve_runs_failed_total", "Fleet runs that finished failed.")
	reg.Counter("remserve_runs_shed_total", "Run requests rejected at capacity (503).")
	reg.Counter("remserve_runs_recovered_total", "Interrupted runs surfaced as failed at boot.")
	// Registry-only (kept out of the legacy JSON view, whose shape is
	// pinned by existing clients).
	reg.Counter("remserve_runs_resumed_total", "Sharded runs re-queued after a coordinator restart.")
	reg.Counter("remserve_journal_errors_total", "Journal writes that failed (run unaffected, resume point degraded).")
	reg.Counter("cluster_heartbeat_misses_total", "Member heartbeat ticks that failed after all in-tick retries.")
	reg.Gauge("remserve_run_resume_epoch", "Barrier the most recently resumed run continued from (0 = none).")
	reg.Counter("remserve_epochs_total", "Fleet epoch barriers executed.")
	reg.Counter("remserve_epoch_allocs_total", "Heap objects allocated across fleet epochs.")
	reg.Histogram("remserve_epoch_wall_ms", "Fleet epoch wall-clock latency (ms).", epochBuckets)
	reg.Gauge("remserve_last_epoch_ns", "Wall-clock nanoseconds of the most recent fleet epoch.")
	reg.Gauge("remserve_last_epoch_allocs", "Heap objects allocated during the most recent fleet epoch.")
	reg.Gauge("remserve_active_runs", "Runs currently executing.")
	reg.Gauge("remserve_active_ues", "UEs attached across executing runs.")
	reg.Gauge("remserve_handovers", "Handovers across all runs (latest heartbeats).")
	reg.Gauge("remserve_failures", "Failures across all runs (latest heartbeats).")
	reg.Gauge("remserve_blocked", "Admission-blocked handovers across all runs.")
	sh := reg.Shard(0)
	return &serverMetrics{
		reg:             reg,
		started:         sh.Counter("remserve_runs_started_total"),
		completed:       sh.Counter("remserve_runs_completed_total"),
		canceled:        sh.Counter("remserve_runs_canceled_total"),
		failed:          sh.Counter("remserve_runs_failed_total"),
		shed:            sh.Counter("remserve_runs_shed_total"),
		recovered:       sh.Counter("remserve_runs_recovered_total"),
		resumed:         sh.Counter("remserve_runs_resumed_total"),
		journalErrors:   sh.Counter("remserve_journal_errors_total"),
		heartbeatMisses: sh.Counter("cluster_heartbeat_misses_total"),
		resumeEpoch:     sh.Gauge("remserve_run_resume_epoch"),
		epochs:          sh.Counter("remserve_epochs_total"),
		epochAllocs:     sh.Counter("remserve_epoch_allocs_total"),
		epochWall:       sh.Histogram("remserve_epoch_wall_ms"),
		activeRuns:      sh.Gauge("remserve_active_runs"),
		activeUEs:       sh.Gauge("remserve_active_ues"),
		handovers:       sh.Gauge("remserve_handovers"),
		failures:        sh.Gauge("remserve_failures"),
		blocked:         sh.Gauge("remserve_blocked"),
		lastEpochNs:     sh.Gauge("remserve_last_epoch_ns"),
		lastEpochAllocs: sh.Gauge("remserve_last_epoch_allocs"),
	}
}

// view rebuilds the legacy JSON /metrics shape from a registry
// snapshot, so the JSON bytes clients already parse stay stable while
// the registry became the single source of truth.
func metricsViewFrom(snap *rem.MetricsSnapshot) metricsView {
	byName := make(map[string]rem.MetricSample, len(snap.Samples))
	for _, s := range snap.Samples {
		byName[s.Family] = s
	}
	val := func(name string) int { return int(byName[name].Value) }
	m := metricsView{
		ActiveRuns:    val("remserve_active_runs"),
		ActiveUEs:     val("remserve_active_ues"),
		RunsStarted:   val("remserve_runs_started_total"),
		RunsCompleted: val("remserve_runs_completed_total"),
		RunsCanceled:  val("remserve_runs_canceled_total"),
		RunsFailed:    val("remserve_runs_failed_total"),
		RunsShed:      val("remserve_runs_shed_total"),
		RunsRecovered: val("remserve_runs_recovered_total"),
		Handovers:     val("remserve_handovers"),
		Failures:      val("remserve_failures"),
		Blocked:       val("remserve_blocked"),
		Epochs:        val("remserve_epochs_total"),
	}
	// The JSON histogram is per-bucket (last entry = overflow), the
	// snapshot's is cumulative: diff it back.
	h := byName["remserve_epoch_wall_ms"]
	var prev int64
	for _, b := range h.Buckets {
		m.EpochWallHist = append(m.EpochWallHist, bucketCount{LeMs: b.Le, Count: int(b.Count - prev)})
		prev = b.Count
	}
	m.EpochWallHist = append(m.EpochWallHist, bucketCount{Count: int(h.Count - prev)})
	return m
}

// wantsPrometheus reports whether the request negotiates the
// Prometheus text exposition. JSON stays the default so existing
// scrapers (and plain curl) keep getting the legacy shape.
func wantsPrometheus(req *http.Request) bool {
	accept := req.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}
