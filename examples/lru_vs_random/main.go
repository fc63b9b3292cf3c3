// lru_vs_random demonstrates Section 2's key property: on a
// time-randomized cache, inserting an access into a sequence can only
// worsen the (probabilistic) execution time — the foundation PUB stands on
// — whereas on a time-deterministic LRU cache inserting an access can make
// the program FASTER, which is why PUB is incompatible with LRU.
//
// The paper's example: in a 2-way cache, {ABCA} misses 4 times under LRU
// while the longer {ABACA} misses only 3.
//
// Run with:
//
//	go run ./examples/lru_vs_random
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"pubtac/internal/cache"
	"pubtac/internal/mbpta"
	"pubtac/internal/proc"
	"pubtac/internal/stats"
	"pubtac/internal/trace"
)

func main() {
	short := trace.Repeat(trace.FromLetters("ABCA", 32), 200)
	long := trace.Repeat(trace.FromLetters("ABACA", 32), 200) // = ins(short, A)

	// --- Time-deterministic platform: modulo + LRU, single-set caches so
	// the three lines contend for two ways, like the paper's example. ---
	det := proc.Model{
		IL1: smallCache(cache.ModuloPlacement, cache.LRUReplacement),
		DL1: smallCache(cache.ModuloPlacement, cache.LRUReplacement),
		Lat: proc.DefaultLatency(),
	}
	eng := proc.NewEngine(det)
	tShort := eng.Run(short, 1)
	tLong := eng.Run(long, 1)
	fmt.Println("time-deterministic cache (modulo + LRU, 1 set x 2 ways):")
	fmt.Printf("  {ABCA}^200  : %6d cycles\n", tShort)
	fmt.Printf("  {ABACA}^200 : %6d cycles  <- LONGER sequence, FASTER program!\n", tLong)
	if tLong < tShort {
		fmt.Println("  inserting an access reduced execution time: PUB is unsound here")
	}

	// --- Time-randomized platform: random placement + replacement. ---
	rnd := proc.Model{
		IL1: smallCache(cache.RandomPlacement, cache.RandomReplacement),
		DL1: smallCache(cache.RandomPlacement, cache.RandomReplacement),
		Lat: proc.DefaultLatency(),
	}
	// A campaign is a trace on a platform under a root seed; collecting its
	// run range [0, runs) draws the same per-run seeds as a serial loop,
	// fanned out over the machine.
	const runs = 4000
	ctx := context.Background()
	sShort, errShort := mbpta.NewCampaign(short, rnd, 7).CollectRangeCtx(ctx, 0, runs, 0, nil)
	sLong, errLong := mbpta.NewCampaign(long, rnd, 7).CollectRangeCtx(ctx, 0, runs, 0, nil)
	if err := errors.Join(errShort, errLong); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntime-randomized cache (random placement + replacement, 2 ways):")
	fmt.Printf("  {ABCA}^200  : mean %7.0f  q99 %7.0f  max %7.0f\n",
		stats.Mean(sShort), stats.Quantile(sShort, 0.99), stats.Max(sShort))
	fmt.Printf("  {ABACA}^200 : mean %7.0f  q99 %7.0f  max %7.0f\n",
		stats.Mean(sLong), stats.Quantile(sLong, 0.99), stats.Max(sLong))
	if stats.NewECDF(sLong).UpperBounds(stats.NewECDF(sShort), 0.02) {
		fmt.Println("  the inserted access made the distribution (stochastically) worse:")
		fmt.Println("  adding accesses is always pessimistic -> PUB is sound (Equation 1)")
	}
}

// smallCache returns a 2-way cache. For the LRU demonstration a single set
// makes A, B, C contend exactly as in the paper's example; the randomized
// variant uses 8 sets so placements vary.
func smallCache(p cache.PlacementPolicy, r cache.ReplacementPolicy) cache.Config {
	sets := 8
	if p == cache.ModuloPlacement {
		sets = 1
	}
	return cache.Config{Sets: sets, Ways: 2, LineBytes: 32, Placement: p, Replacement: r}
}
