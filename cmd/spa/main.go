// Command spa is the command-line front end of the reproduction. It
// regenerates each of the paper's evaluation artifacts on demand:
//
//	spa table1                      — Table 1 (Four-Branch Model)
//	spa fig5                        — Figure 5 (individualized messages)
//	spa fig6   [-users] [-seed] ... — Figure 6 (redemption curve + scores)
//	spa gen    [-users] [-weeks]    — synthetic WebLog generation to disk
//	spa ablate [-users] [-seed]     — the A1–A3 ablations from DESIGN.md
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "table1":
		err = cmdTable1()
	case "fig5":
		err = cmdFig5(os.Args[2:])
	case "fig6":
		err = cmdFig6(os.Args[2:])
	case "gen":
		err = cmdGen(os.Args[2:])
	case "ablate":
		err = cmdAblate(os.Args[2:])
	case "inventory":
		err = cmdInventory(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "spa: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "spa: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: spa <command> [flags]

commands:
  table1    print the Four-Branch Model of Emotional Intelligence (paper Table 1)
  fig5      print the individualized-message samples (paper Figure 5)
  fig6      run the ten-campaign evaluation (paper Figure 6a + 6b)
  gen       generate a synthetic WebLog directory
  ablate    run the A1-A3 ablations (features / learners / reward-punish)
  inventory print the attribute inventory with measured density (paper §5.1)

related binaries:
  spad      the SPA serving daemon (HTTP/JSON wire API; see cmd/spad);
            talk to it with the internal/spaclient package
  spabench  the evaluation harness (paper sections, [S9] cluster scale,
            -torture); go test ./cmd/spad -e2e drives the built daemon`)
}

func experimentFlags(fs *flag.FlagSet) (users *int, seed *uint64, depth *float64) {
	users = fs.Int("users", 5000, "population size (paper: 1340432)")
	seed = fs.Uint64("seed", 7, "experiment seed")
	depth = fs.Float64("depth", 0.40, "selection depth (fraction contacted)")
	return
}
