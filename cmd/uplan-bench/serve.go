package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"uplan/internal/bench"
	"uplan/internal/serve"
	"uplan/internal/serve/serveclient"
)

// serveResult is the machine-readable outcome of the serve experiment,
// written by -out. It measures the service end to end — HTTP round
// trips through serveclient against a live in-process server — so the
// numbers include wire serialization, admission, and cache effects the
// raw pipeline benchmarks exclude.
type serveResult struct {
	Experiment    string  `json:"experiment"`
	Seed          int64   `json:"seed"`
	CorpusRecords int     `json:"corpus_records"`
	Clients       int     `json:"clients"`
	Convert       loadRun `json:"convert"`
	// Batch is one full-corpus batch-convert round trip; PlansPerSec is
	// the server-reported pipeline rate inside that request.
	Batch struct {
		Plans          int     `json:"plans"`
		Seconds        float64 `json:"seconds"`
		ServerPlansSec float64 `json:"server_plans_per_sec"`
	} `json:"batch"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Shed        int64 `json:"shed"`
	Errors      int64 `json:"errors"`
}

// loadRun records one client-observed load phase.
type loadRun struct {
	Requests       int     `json:"requests"`
	Seconds        float64 `json:"seconds"`
	RequestsPerSec float64 `json:"requests_per_sec"`
}

// runServeExperiment boots an in-process plan service on a loopback :0
// listener and drives it with concurrent serveclient clients: iters
// single converts round-robined over the mixed corpus, then one
// full-corpus batch convert. The server is drained (not killed) at the
// end, so the run also exercises the clean-shutdown path every time.
func runServeExperiment(seed int64, clients, iters int, out string) error {
	corpus, err := bench.Corpus(seed)
	if err != nil {
		return err
	}
	if clients <= 0 {
		clients = runtime.GOMAXPROCS(0)
	}

	srv := serve.New(serve.Options{
		Addr: "127.0.0.1:0",
		// The load test measures throughput, not shedding: queue deep
		// enough that the client fan-in is never refused.
		MaxInFlight: clients,
		MaxQueue:    4 * clients,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	base := "http://" + l.Addr().String()
	fmt.Printf("== Serve: %d clients x %d convert requests against %s (%d-record corpus) ==\n",
		clients, iters, base, len(corpus))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	result := serveResult{
		Experiment:    "serve",
		Seed:          seed,
		CorpusRecords: len(corpus),
		Clients:       clients,
	}

	// Phase 1: single converts, one shared atomic cursor so the request
	// total is exact regardless of client count.
	var next, errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := serveclient.New(base, serveclient.Options{})
			for {
				i := next.Add(1) - 1
				if i >= int64(iters) {
					return
				}
				rec := corpus[int(i)%len(corpus)]
				if _, err := client.Convert(ctx, rec.Dialect, rec.Serialized); err != nil {
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	result.Convert = loadRun{
		Requests:       iters,
		Seconds:        elapsed.Seconds(),
		RequestsPerSec: float64(iters) / elapsed.Seconds(),
	}
	fmt.Printf("convert: %d requests in %.3fs (%.0f req/s, %d errors)\n",
		iters, elapsed.Seconds(), result.Convert.RequestsPerSec, errs.Load())

	// Phase 2: one full-corpus batch round trip.
	client := serveclient.New(base, serveclient.Options{})
	records := make([]serve.ConvertRequest, len(corpus))
	for i, r := range corpus {
		records[i] = serve.ConvertRequest{Dialect: r.Dialect, Serialized: r.Serialized}
	}
	start = time.Now()
	batch, err := client.BatchConvert(ctx, records)
	if err != nil {
		errs.Add(1)
		fmt.Fprintln(os.Stderr, "uplan-bench: batch-convert:", err)
	} else {
		result.Batch.Plans = batch.Converted
		result.Batch.Seconds = time.Since(start).Seconds()
		result.Batch.ServerPlansSec = batch.PlansPerSec
		fmt.Printf("batch-convert: %d plans in %.3fs round trip (server pipeline %.0f plans/s)\n",
			batch.Converted, result.Batch.Seconds, batch.PlansPerSec)
	}

	// The server's own counters close the loop: cache hit rate is the
	// corpus-repeat effect, shed should be zero at this queue depth.
	snap := srv.Metrics()
	result.CacheHits = snap.Cache.Hits
	result.CacheMisses = snap.Cache.Misses
	result.Shed = snap.Shed.Single + snap.Shed.Batch
	result.Errors = errs.Load()
	hitRate := 0.0
	if tot := snap.Cache.Hits + snap.Cache.Misses; tot > 0 {
		hitRate = float64(snap.Cache.Hits) / float64(tot)
	}
	fmt.Printf("cache: %d hits / %d misses (%.0f%% hit rate); shed: %d; panics: %d\n",
		snap.Cache.Hits, snap.Cache.Misses, 100*hitRate, result.Shed, snap.Panics)

	// Clean drain, every run: the load test doubles as a shutdown test.
	drainCtx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := srv.Drain(drainCtx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil {
		return err
	}

	if errs.Load() > 0 {
		return fmt.Errorf("serve experiment: %d request(s) failed", errs.Load())
	}
	if out != "" {
		data, err := json.MarshalIndent(result, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	fmt.Println()
	return nil
}
