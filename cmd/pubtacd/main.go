// Command pubtacd is the resident pubtac analysis daemon: a JSON-over-HTTP
// service over the Session API with a content-addressed, persistent result
// store. The pipeline is a deterministic function of (program, configuration,
// seed), so every result is cached forever under its content key — hot
// queries are store hits served without simulation, cold ones fan out over
// the session worker pool, and the per-item on-disk tier survives instance
// eviction and restart.
//
// Endpoints:
//
//	POST /v1/analyze            submit (single path, multipath or batch);
//	                            {"wait":true} responds with the result body
//	POST /v1/shards             execute one campaign shard (worker half of
//	                            distributed sharding; see -peers)
//	GET  /v1/jobs/{id}          job status
//	GET  /v1/jobs/{id}/events   progress events (Server-Sent Events)
//	GET  /v1/results/{key}      stored result by content key (ETag/If-None-Match)
//	GET  /v1/healthz            liveness
//	GET  /v1/statusz            cache/job counters
//
// Usage:
//
//	pubtacd -addr 127.0.0.1:8753 -dir /var/lib/pubtac -scale 1.0
//	pubtac -remote http://127.0.0.1:8753 -bench bs
//
// With -peers the daemon becomes a campaign coordinator: every campaign's
// collection is sharded across the listed workers (each running the same
// session configuration), failed shards are recomputed locally, and the
// merged results — and so every cache key — are bit-identical to an
// unsharded daemon's:
//
//	pubtacd -addr :8761 -dir w1 &
//	pubtacd -addr :8762 -dir w2 &
//	pubtacd -addr :8753 -dir coord -peers http://127.0.0.1:8761,http://127.0.0.1:8762
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"pubtac"
	"pubtac/client"
	"pubtac/internal/core"
	"pubtac/internal/fault"
	"pubtac/internal/pool"
	"pubtac/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pubtacd: ")
	var (
		addr    = flag.String("addr", "127.0.0.1:8753", "listen address")
		dir     = flag.String("dir", "pubtacd-store", "result store directory (persists across restarts)")
		mem     = flag.Int("mem", 256, "in-memory result cache entries (LRU over the disk tier)")
		maxJobs = flag.Int("max-jobs", 2, "concurrently computing analyses; further submissions queue")
		scale   = flag.Float64("scale", 1.0, "campaign scale (1.0 = paper-size)")
		workers = flag.Int("workers", 0, "simulation workers per analysis (0 = GOMAXPROCS)")
		seed    = flag.Uint64("seed", 0, "campaign seed salt (part of every cache key)")
		stream  = flag.Bool("stream", false, "bounded-memory streaming estimation")
		streamK = flag.Int("stream-budget", 0, "streaming memory budget K (0 = default); implies -stream")
		peers   = flag.String("peers", "", "comma-separated pubtacd worker base URLs; campaigns shard across them (results stay bit-identical)")
		shards  = flag.Int("shards", 0, "shards per campaign range when -peers is set (0 = one per peer)")
		quota   = flag.Int64("disk-quota", 0, "disk-tier byte quota; oldest entries evicted past it (0 = unbounded)")

		peerRetry = flag.Int("peer-retry", 0, "dispatch attempts per shard before local fallback (0 = fabric default, 3)")
		hedge     = flag.Duration("hedge-delay", 0, "race an unanswered shard on a second peer after this long (0 = off)")
		deadline  = flag.Duration("shard-deadline", 10*time.Minute, "per-shard compute budget for POST /v1/shards; over-budget shards fail with 503 (0 = none)")
		chaos     = flag.String("chaos", "", `fault-inject outbound peer calls, e.g. "drop=150,fail=100,corrupt=80,truncate=50,delay=100:5ms" (per-mille rates; testing only)`)
		chaosSeed = flag.Uint64("chaos-seed", 1, "seed for the -chaos injection schedule (same seed, same schedule)")
	)
	flag.Parse()
	if err := core.CheckScale(*scale); err != nil {
		log.Fatalf("-scale: %v", err)
	}
	if *peers == "" && (*shards != 0 || *peerRetry != 0 || *hedge != 0 || *chaos != "") {
		log.Fatal("-shards, -peer-retry, -hedge-delay and -chaos configure outbound peer calls; they need -peers")
	}

	opts := []pubtac.Option{
		pubtac.WithScale(*scale),
		pubtac.WithWorkers(*workers),
		pubtac.WithSeed(*seed),
	}
	if *stream || *streamK > 0 {
		opts = append(opts, pubtac.WithStreamingEstimation(*streamK))
	}

	store, err := serve.NewStore(*dir, *mem)
	if err != nil {
		log.Fatal(err)
	}
	if *quota > 0 {
		if err := store.SetDiskQuota(*quota); err != nil {
			log.Fatal(err)
		}
	}
	var peerTransport http.RoundTripper
	if *chaos != "" {
		spec, err := fault.ParseSpec(*chaos, *chaosSeed)
		if err != nil {
			log.Fatal(err)
		}
		peerTransport = fault.New(spec).RoundTripper(nil, nil)
		log.Printf("CHAOS: injecting faults into outbound peer calls (%s, seed %d)", *chaos, *chaosSeed)
	}
	if *peers != "" {
		fabric := client.NewFabric(client.PeersConfig{
			MaxAttempts: *peerRetry, HedgeDelay: *hedge, Transport: peerTransport,
		}, strings.Split(*peers, ",")...)
		opts = append(opts, pubtac.WithPeers(fabric))
		if *shards > 0 {
			opts = append(opts, pubtac.WithShards(*shards))
		}
		log.Printf("coordinating campaigns over %d peers", fabric.Shards())
	}
	srv, err := serve.New(serve.Options{
		Store:          store,
		SessionOptions: opts,
		MaxJobs:        *maxJobs,
		ShardDeadline:  *deadline,
	})
	if err != nil {
		log.Fatal(err)
	}
	if n, err := store.DiskLen(); err == nil {
		log.Printf("store %s: %d persisted results", *dir, n)
	}
	log.Printf("config fingerprint %s (schema v%d)", srv.ConfigFingerprint(), pubtac.ResultSchemaVersion)

	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	grp, gctx := pool.WithContext(ctx)
	grp.Go(func() error {
		log.Printf("listening on http://%s", *addr)
		return httpSrv.ListenAndServe() // http.ErrServerClosed after Shutdown
	})
	grp.Go(func() error {
		<-gctx.Done() // interrupt, or ListenAndServe failed
		srv.Close()   // cancel jobs, release SSE streams and waiters
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(sctx)
	})
	if err := grp.Wait(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	log.Print("shut down")
}
