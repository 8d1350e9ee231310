// Slicing at scale: on a FatTree(8) fabric, sweep the number of flows
// and compare baseline (whole-network) detection time against the
// sliced per-switch detector — the paper's Fig. 12 shape. Slicing also
// localizes the compromised region.
//
// Run with:
//
//	go run ./examples/slicing
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"foces"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	top, err := foces.FatTree(8)
	if err != nil {
		return err
	}
	fmt.Printf("FatTree(8): %d switches, %d hosts\n\n", top.NumSwitches(), top.NumHosts())
	fmt.Printf("%8s %8s %12s %12s %8s\n", "flows", "rules", "baseline", "sliced", "speedup")

	for _, flows := range []int{240, 480, 960, 1920} {
		pairs, err := firstPairs(top, flows)
		if err != nil {
			return err
		}
		sys, err := foces.NewSystemWithPairs(top, pairs)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(int64(flows)))
		tm := make(foces.TrafficMatrix, len(pairs))
		for _, p := range pairs {
			tm[foces.FlowKey{Src: p[0], Dst: p[1]}] = 500
		}
		// Compromise one switch so both detectors have something to find.
		if _, err := sys.InjectRandomAttack(rng, foces.AttackPortSwap); err != nil {
			return err
		}
		y, err := sys.ObserveCountersFor(rng, tm)
		if err != nil {
			return err
		}

		// The default mode runs both engines and times each stage.
		rep, err := sys.Run(foces.Observation{Vector: y})
		if err != nil {
			return err
		}
		baseTime, slicedTime := rep.Timings.Full, rep.Timings.Sliced

		if !rep.Full.Anomalous || !rep.Sliced.Anomalous {
			return fmt.Errorf("%d flows: attack missed (base=%v sliced=%v)", flows, rep.Full.Anomalous, rep.Sliced.Anomalous)
		}
		fmt.Printf("%8d %8d %12v %12v %7.1fx   suspects=%v\n",
			sys.FCM().NumFlows(), sys.FCM().NumRules(),
			baseTime.Round(time.Microsecond), slicedTime.Round(time.Microsecond),
			float64(baseTime)/float64(slicedTime), truncate(rep.Suspects, 3))
	}
	fmt.Println("\nThe baseline solve grows ~cubically with the flow count; slicing")
	fmt.Println("solves many small per-switch systems instead and pulls ahead past")
	fmt.Println("the crossover — the Fig. 12 behaviour.")
	return nil
}

// firstPairs deterministically enumerates the first k ordered host
// pairs.
func firstPairs(top *foces.Topology, k int) ([][2]foces.HostID, error) {
	var pairs [][2]foces.HostID
	for _, src := range top.Hosts() {
		for _, dst := range top.Hosts() {
			if src.ID == dst.ID {
				continue
			}
			pairs = append(pairs, [2]foces.HostID{src.ID, dst.ID})
			if len(pairs) == k {
				return pairs, nil
			}
		}
	}
	return nil, fmt.Errorf("topology has fewer than %d pairs", k)
}

func truncate(ids []foces.SwitchID, n int) []foces.SwitchID {
	if len(ids) <= n {
		return ids
	}
	return ids[:n]
}
