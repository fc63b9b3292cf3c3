// Command tables regenerates the paper's Table 1 (bs execution-time
// domain) and Table 2 (representative number of runs per benchmark).
// Campaigns fan out over a bounded worker pool; Ctrl-C cancels cleanly.
//
// Usage:
//
//	tables -table all -scale 0.1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"pubtac/internal/core"
	"pubtac/internal/experiment"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")
	var (
		table   = flag.String("table", "all", "which table to regenerate: 1, 2 or all")
		scale   = flag.Float64("scale", 0.05, "campaign scale (1.0 = paper-size)")
		workers = flag.Int("workers", 0, "total simulation workers (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if err := core.CheckScale(*scale); err != nil {
		log.Fatalf("-scale: %v", err)
	}
	opts := experiment.Options{Scale: *scale, Workers: *workers}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *table == "1" || *table == "all" {
		rows, err := experiment.Table1(ctx, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Table 1: BS execution time domain (runs in thousands)")
		fmt.Printf("%-6s %8s %8s %14s %14s\n", "input", "Rpub", "Rp+t", "pWCET@1e-12", "")
		fmt.Printf("%-6s %8s %8s %14s %14s\n", "", "", "", "PUB", "P+T")
		for _, r := range rows {
			fmt.Printf("%-6s %8.0f %8.0f %14.0f %14.0f\n",
				r.Input, r.RPubK, r.RPTK, r.PWCETPub, r.PWCETPT)
		}
		fmt.Println()
	}
	if *table == "2" || *table == "all" {
		rows, err := experiment.Table2(ctx, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Table 2: runs (in thousands) for MBPTA, PUB and PUB+TAC")
		fmt.Printf("%-12s %8s %8s %8s\n", "benchmark", "Rorig", "Rpub", "Rp+t")
		for _, r := range rows {
			fmt.Printf("%-12s %8.1f %8.1f %8.1f\n", r.Benchmark, r.ROrigK, r.RPubK, r.RPTK)
		}
	}
}
