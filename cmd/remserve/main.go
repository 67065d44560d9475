// Command remserve is the long-running mobility-management service: it
// accepts fleet-run specs over HTTP, executes them on the
// deterministic multi-UE fleet engine, and exposes results, live
// event streams and service metrics.
//
// Endpoints:
//
//	POST /runs                start a fleet run (JSON spec; see below)
//	GET  /runs                list runs
//	GET  /runs/{id}           run status; includes the result when done
//	POST /runs/{id}/cancel    cancel a running fleet
//	GET  /runs/{id}/events    NDJSON event stream (replay + live follow)
//	GET  /runs/{id}/timeline  NDJSON telemetry timeline (armed runs only)
//	GET  /runs/{id}/metrics   run metrics snapshot, Prometheus text
//	GET  /metrics             service metrics: legacy JSON by default,
//	                          Prometheus text with Accept: text/plain
//	GET  /healthz             role-aware health: {status, role, ready,
//	                          members, shards}
//	POST /cluster/v1/...      cluster plane (join/heartbeat/members on a
//	                          coordinator; shard start/step/finish/abort
//	                          on a member)
//
// A spec names dataset and mode as strings and otherwise matches
// rem.FleetSpec's JSON shape; "telemetry": true arms the deterministic
// observability plane for the run (timelines + per-run metrics)
// without changing a byte of its result:
//
//	curl -s localhost:8080/runs -d '{"ues":50,"dataset":"beijing-shanghai",
//	  "mode":"rem","speed_kmh":330,"duration_sec":60,"seed":7,"telemetry":true}'
//
// Runs derive every RNG stream from the spec's seed, so re-posting the
// same spec reproduces the same summary byte-for-byte regardless of
// worker count or server load. SIGINT/SIGTERM cancels in-flight runs
// and shuts the listener down gracefully.
//
// With -role coordinator, a spec may add "shards": N to partition the
// fleet across member remserves (-role member -coordinator URL
// -advertise URL): members execute shard ranges in lock-step with
// per-cell loads exchanged at every epoch barrier, and the merged
// result, timeline and metrics are byte-identical to a single-process
// run — including after a mid-run member failure, which replays the
// shard deterministically on a survivor. See cmd/remctl for the
// operator CLI and DESIGN.md "Cluster plane" for the contract.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux
	"os"
	"os/signal"
	"syscall"
	"time"

	"rem/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof on this address (e.g. localhost:6060); empty disables")
	runTimeout := flag.Duration("run-timeout", 0, "per-run wall-clock deadline (0 disables); exceeded runs finish failed")
	maxBody := flag.Int64("max-body", 1<<20, "maximum POST /runs body size in bytes")
	maxActive := flag.Int("max-active", 4, "fleet runs executing concurrently; further runs queue")
	maxQueue := flag.Int("max-queue", 8, "pending-run queue depth, 0 for none; beyond it POST /runs returns 503")
	journalPath := flag.String("journal", "", "crash-safe run journal path; on restart, interrupted runs surface as failed (sharded runs on a coordinator are re-queued)")
	role := flag.String("role", "single", "cluster role: single, coordinator, or member")
	coordURL := flag.String("coordinator", "", "coordinator base URL to join (member role)")
	advertise := flag.String("advertise", "", "base URL the coordinator dials this member back on (member role)")
	memberID := flag.String("member-id", "", "member identity in the cluster (member role; defaults to the advertise URL)")
	heartbeat := flag.Duration("heartbeat", time.Second, "member heartbeat interval")
	memberTTL := flag.Duration("member-ttl", 5*time.Second, "coordinator: member liveness window after its last heartbeat")
	memberWait := flag.Duration("member-wait", 30*time.Second, "coordinator: how long a sharded run waits for a live member")
	callTimeout := flag.Duration("call-timeout", 2*time.Minute, "coordinator: per-shard-RPC deadline; exceeding it fails the member over (0 disables)")
	barrierDeadline := flag.Duration("barrier-deadline", 0, "coordinator: per-epoch straggler deadline; a shard past it is reassigned (0 = call-timeout)")
	callRetries := flag.Int("call-retries", 2, "coordinator: in-place retries for transiently failed shard RPCs (-1 disables)")
	flag.Parse()

	// The profiling endpoints live on their own listener so they are
	// never exposed on the service address.
	if *pprofAddr != "" {
		go func() {
			log.Printf("remserve pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("remserve: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mq := *maxQueue
	if mq == 0 {
		mq = -1 // flag 0 means "no queue"; serverConfig uses -1 for that
	}
	ct := *callTimeout
	if ct == 0 {
		ct = -1 // flag 0 means "no deadline"; cluster.Config uses <0 for that
	}
	s, err := newServer(ctx, serverConfig{
		RunTimeout:      *runTimeout,
		MaxBody:         *maxBody,
		MaxActive:       *maxActive,
		MaxQueue:        mq,
		JournalPath:     *journalPath,
		Role:            *role,
		MemberTTL:       *memberTTL,
		MemberWait:      *memberWait,
		CallTimeout:     ct,
		BarrierDeadline: *barrierDeadline,
		CallRetries:     *callRetries,
	})
	if err != nil {
		log.Fatalf("remserve: %v", err)
	}
	defer s.journal.Close()

	// A member announces itself to the coordinator and keeps beating
	// until shutdown. Join failures are retried — the coordinator may
	// simply not be up yet.
	if *role == "member" && *coordURL != "" {
		if *advertise == "" {
			log.Fatalf("remserve: -role member needs -advertise")
		}
		id := *memberID
		if id == "" {
			id = *advertise
		}
		go func() {
			opts := cluster.HeartbeatOpts{
				Interval: *heartbeat,
				// A missed beat (all in-tick retries exhausted) is logged
				// and counted — silence here is how a partitioned member
				// used to age out of the registry unnoticed.
				OnMiss: func(consecutive int, err error) {
					s.noteHeartbeatMiss()
					log.Printf("remserve: heartbeat: %d consecutive misses: %v", consecutive, err)
				},
			}
			for ctx.Err() == nil {
				err := cluster.HeartbeatWithOpts(ctx, nil, *coordURL, id, *advertise, opts)
				if ctx.Err() != nil {
					return
				}
				log.Printf("remserve: heartbeat: %v", err)
				select {
				case <-time.After(*heartbeat):
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	srv := &http.Server{
		Addr:        *addr,
		Handler:     s.handler(),
		ReadTimeout: 30 * time.Second,
	}

	go func() {
		<-ctx.Done()
		// Base-context cancellation has already torn down every
		// in-flight fleet (their run contexts are children); now drain
		// the listener.
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("remserve: shutdown: %v", err)
		}
	}()

	log.Printf("remserve listening on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("remserve: %v", err)
	}
	log.Printf("remserve: stopped")
}
