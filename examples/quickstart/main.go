// Quickstart: build a small SDN, observe clean counters, compromise a
// switch, and watch FOCES flag the forwarding anomaly.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"foces"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 4-ary fat-tree data center: 20 switches, 16 hosts, and one flow
	// between every host pair (240 flows).
	top, err := foces.FatTree(4)
	if err != nil {
		return err
	}
	sys, err := foces.NewSystem(top, foces.PairExact)
	if err != nil {
		return err
	}
	fmt.Println(sys)

	rng := rand.New(rand.NewSource(1))

	// 1. A clean collection interval: the counters fit the flow-counter
	// equation system, so the anomaly index stays near zero.
	y, err := sys.ObserveCounters(rng, 1000)
	if err != nil {
		return err
	}
	rep, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Mode: foces.ModeFull}})
	if err != nil {
		return err
	}
	fmt.Printf("clean network:   anomaly index = %.2f, anomalous = %v\n", rep.Index, rep.Anomalous)

	// 2. Compromise a random switch: one forwarding rule silently sends
	// packets out of the wrong port. The switch keeps reporting its
	// original rules and plausible counters — but the rest of the
	// network's counters no longer fit the equation system.
	atk, err := sys.InjectRandomAttack(rng, foces.AttackPortSwap)
	if err != nil {
		return err
	}
	fmt.Printf("injected attack: switch %d rewrites rule %d to %v\n", atk.Switch, atk.RuleID, atk.NewAction)

	y, err = sys.ObserveCounters(rng, 1000)
	if err != nil {
		return err
	}
	// 3. The default mode runs both engines: the network-wide verdict
	// plus sliced detection, which localizes the problem to suspect
	// switches.
	rep, err = sys.Run(foces.Observation{Vector: y})
	if err != nil {
		return err
	}
	fmt.Printf("under attack:    anomaly index = %s, anomalous = %v\n", fmtIndex(rep.Index), rep.Full.Anomalous)
	fmt.Printf("localization:    suspect switches = %v\n", rep.Suspects)

	// 4. Repair the rule; the network goes quiet again.
	if err := atk.Revert(sys.Network()); err != nil {
		return err
	}
	y, err = sys.ObserveCounters(rng, 1000)
	if err != nil {
		return err
	}
	rep, err = sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Mode: foces.ModeFull}})
	if err != nil {
		return err
	}
	fmt.Printf("after repair:    anomaly index = %.2f, anomalous = %v\n", rep.Index, rep.Anomalous)
	return nil
}

func fmtIndex(v float64) string {
	if v > 1e308 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", v)
}
