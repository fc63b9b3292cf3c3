// bs_casestudy reproduces the Section 3.3 walk-through on the binary
// search benchmark:
//
//  1. the 8 input vectors triggering the maximum number of iterations
//     exercise 8 different paths;
//  2. each pubbed path's measured distribution upper-bounds every original
//     path (Figure 2's message);
//  3. for input v9, a campaign of R_pub runs misses the ECCDF knee that the
//     R_pub+tac campaign captures (Figure 4's message).
//
// Run with:
//
//	go run ./examples/bs_casestudy
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"pubtac"
	"pubtac/internal/malardalen"
	"pubtac/internal/mbpta"
	"pubtac/internal/stats"
)

func main() {
	log.SetFlags(0)

	bench, err := pubtac.Benchmark("bs")
	if err != nil {
		log.Fatal(err)
	}
	pubbed, _, err := pubtac.Transform(bench.Program)
	if err != nil {
		log.Fatal(err)
	}
	model := pubtac.DefaultModel()
	ctx := context.Background()

	// --- Part 1 & 2: the 8 max-iteration paths, original vs pubbed. ---
	const runs = 20000 // the paper uses 1e6 per path; scaled for a demo
	inputs := malardalen.BSMaxIterationInputs(bench)
	fmt.Printf("%d maximum-iteration input vectors (Table 1's v1..v15)\n\n", len(inputs))
	fmt.Printf("%-6s %12s %12s %12s\n", "input", "orig max", "pubbed max", "pubbed/orig")

	var origOverall float64
	pubMins := make([]float64, 0, len(inputs))
	for _, in := range inputs {
		orig := bench.Program.MustExec(in)
		pubd := pubbed.MustExec(in)
		so, errO := mbpta.NewCampaign(orig.Trace, model, mbpta.Seed("cs/o/"+in.Name)).CollectRangeCtx(ctx, 0, runs, 0, nil)
		sp, errP := mbpta.NewCampaign(pubd.Trace, model, mbpta.Seed("cs/p/"+in.Name)).CollectRangeCtx(ctx, 0, runs, 0, nil)
		if err := errors.Join(errO, errP); err != nil {
			log.Fatal(err)
		}
		mo, mp := stats.Max(so), stats.Max(sp)
		if mo > origOverall {
			origOverall = mo
		}
		pubMins = append(pubMins, mp)
		fmt.Printf("%-6s %12.0f %12.0f %12.2f\n", in.Name, mo, mp, mp/mo)
	}
	lowestPub := stats.Min(pubMins)
	fmt.Printf("\nhighest observed time across ORIGINAL paths: %.0f cycles\n", origOverall)
	fmt.Printf("lowest per-path maximum across PUBBED paths: %.0f cycles\n", lowestPub)
	fmt.Println("(every pubbed path upper-bounds every original path: Corollary 1)")

	// --- Part 3: v9 with R_pub vs R_pub+tac (Figure 4). ---
	s := pubtac.NewSession(pubtac.WithCampaignCap(80000))
	v9, err := bench.Input("v9")
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.AnalyzePath(ctx, bench.Program, v9)
	if err != nil {
		log.Fatal(err)
	}
	pa := res.Analysis()
	fmt.Printf("\nv9: R_pub = %d runs, R_pub+tac = %d runs\n", pa.RPub, pa.R)
	fmt.Printf("%-22s %12s %12s\n", "", "Rpub sample", "Rp+t sample")
	for _, p := range []float64{1e-6, 1e-9, 1e-12} {
		fmt.Printf("pWCET @ %-14.0e %12.0f %12.0f\n",
			p, pa.PubOnly.PWCET(p), pa.Full.PWCET(p))
	}
	fmt.Printf("max observed:          %12.0f %12.0f\n",
		pa.PubOnly.MaxObserved(), pa.Full.MaxObserved())
	fmt.Println("\nthe larger campaign observes the rare conflictive cache placements")
	fmt.Println("(the ECCDF 'knee'), so its pWCET accounts for them")
}
