// Modelcheck: herd-style exploration with the paper's PTX model (Sec. 5):
// message passing under each fence scope, intra- and inter-CTA, plus the
// Sec. 6 refutation of the operational model of Sorensen et al.
package main

import (
	"context"
	"fmt"
	"log"

	gpulitmus "github.com/weakgpu/gpulitmus"
)

func main() {
	ctx := context.Background()
	fmt.Println("== mp under the PTX model (RMO per scope, Figs. 15-16) ==")
	for _, f := range []gpulitmus.Fence{gpulitmus.NoFence, gpulitmus.FenceCTA, gpulitmus.FenceGL, gpulitmus.FenceSys} {
		name := "mp"
		if f != gpulitmus.NoFence {
			name = "mp+" + string(f) + "s"
		}
		test, err := gpulitmus.TestByName(name)
		if err != nil {
			// Not every fence variant is in the library; build it.
			test, err = gpulitmus.TestFromEdges(name, mpEdges(f))
			if err != nil {
				log.Fatal(err)
			}
		}
		v, err := gpulitmus.Judge(test)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", v)
	}
	fmt.Println("\n  membar.cta does not order across CTAs, so inter-CTA mp stays allowed")
	fmt.Println("  under it; membar.gl (and .sys) forbid it — the Fig. 14 cycle.")

	fmt.Println("\n== Sec. 6: the operational model is unsound ==")
	test, err := gpulitmus.TestByName("lb+membar.ctas")
	if err != nil {
		log.Fatal(err)
	}
	ptxV, err := gpulitmus.JudgeWith(ctx, gpulitmus.PTXModel(), test, gpulitmus.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	opV, err := gpulitmus.JudgeWith(ctx, gpulitmus.OperationalModel(), test, gpulitmus.Opts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  PTX model:         %s\n", ptxV)
	fmt.Printf("  operational model: %s\n", opV)
	fmt.Println("  The paper observed lb+membar.ctas 586/100k on GTX Titan: the")
	fmt.Println("  operational model forbids an observable behaviour and is unsound;")
	fmt.Println("  the PTX model allows it.")

	fmt.Println("\n== witness execution for coRR (allowed by RMO-llh) ==")
	corr, err := gpulitmus.TestByName("coRR")
	if err != nil {
		log.Fatal(err)
	}
	v, err := gpulitmus.Judge(corr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v)
	fmt.Println(v.Witness)
}

func mpEdges(f gpulitmus.Fence) string {
	switch f {
	case gpulitmus.FenceCTA:
		return "Rfe MembarCTAdRR Fre MembarCTAdWW"
	case gpulitmus.FenceGL:
		return "Rfe MembarGLdRR Fre MembarGLdWW"
	case gpulitmus.FenceSys:
		return "Rfe MembarSYSdRR Fre MembarSYSdWW"
	default:
		return "Rfe PodRR Fre PodWW"
	}
}
