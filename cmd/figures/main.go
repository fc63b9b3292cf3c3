// Command figures regenerates the paper's figures as ASCII plots plus the
// headline numbers each figure supports.
//
// Usage:
//
//	figures -fig 4 -scale 0.1
//	figures -fig all
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"pubtac/internal/experiment"
	"pubtac/internal/textplot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var (
		fig     = flag.String("fig", "all", "which figure: 1, 2, 4, 5 or all")
		scale   = flag.Float64("scale", 0.05, "campaign scale (1.0 = paper-size)")
		workers = flag.Int("workers", 0, "total simulation workers (0 = GOMAXPROCS)")
		width   = flag.Int("width", 72, "plot width")
		height  = flag.Int("height", 14, "plot height")
	)
	flag.Parse()
	if err := experiment.CheckScale(*scale); err != nil {
		log.Fatalf("-scale: %v", err)
	}
	opts := experiment.Options{Scale: *scale, Workers: *workers}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	want := func(f string) bool { return *fig == f || *fig == "all" }

	if want("1") {
		series, err := experiment.Figure1(ctx, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Figure 1(a): pWCET curve upper-bounding the pETd")
		fmt.Print(textplot.ECCDF(toPlot(series), *width, *height))
		fmt.Println()
	}
	if want("2") {
		series, err := experiment.Figure2(ctx, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Figure 2: ECCDF of bs original (o) vs pubbed (x) max-iteration paths")
		// Condense: merge the 8 original and 8 pubbed into two series for
		// readability; the full data stays available programmatically.
		merged := []textplot.Series{
			{Name: "original paths (8)"},
			{Name: "pubbed paths (8)"},
		}
		for i, s := range series {
			k := 0
			if i >= 8 {
				k = 1
			}
			merged[k].Points = append(merged[k].Points, s.Points...)
		}
		fmt.Print(textplot.ECCDF(merged, *width, *height))
		fmt.Println()
	}
	if want("4") {
		res, err := experiment.Figure4(ctx, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Figure 4: bs v9 — Rpub=%d vs Rp+t=%d\n", res.RPub, res.RPT)
		fmt.Print(textplot.ECCDF(toPlot([]experiment.Series{
			res.Reference, res.PubCurve, res.PTCurve,
		}), *width, *height))
		fmt.Println()
	}
	if want("5") {
		rows, err := experiment.Figure5(ctx, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Figure 5: pWCET of PUB and PUB+TAC relative to plain MBPTA (@1e-12)")
		fmt.Printf("%-12s %8s %8s\n", "benchmark", "PUB", "PUB+TAC")
		for _, r := range rows {
			fmt.Printf("%-12s %7.2fx %7.2fx\n", r.Benchmark, r.PubRatio, r.PTRatio)
		}
	}
}

func toPlot(in []experiment.Series) []textplot.Series {
	out := make([]textplot.Series, len(in))
	for i, s := range in {
		out[i] = textplot.Series{Name: s.Name, Points: s.Points}
	}
	return out
}
