// Waypoint bypass: the intro's motivating scenario. A security policy
// requires traffic from a branch-office host to traverse a firewall
// switch on its way to a server. A compromised upstream switch
// rewrites its forwarding rule so packets skip the firewall — the
// compromised switch keeps reporting its original rules and its own
// counters stay plausible, but the firewall's counter no longer fits
// the network-wide flow-counter equation system and FOCES flags the
// deviation immediately.
//
// Run with:
//
//	go run ./examples/waypointbypass
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
	// Topology: branch -> edge -> {firewall | shortcut} -> core -> server.
	//
	//   edge ──── firewall ──── core
	//    │                       │
	//    └─────── shortcut ──────┘
	//
	// The intended path to the server pins traffic through the firewall
	// (the edge-shortcut-core detour has equal length, so we steer the
	// policy by building the firewall path shorter: edge->firewall->core
	// vs edge->shortcut->bad->core).
	b := foces.NewTopologyBuilder("waypoint")
	edge := b.AddSwitch("edge", "edge")
	firewall := b.AddSwitch("firewall", "waypoint")
	shortcut := b.AddSwitch("shortcut", "")
	bad := b.AddSwitch("backdoor", "")
	core := b.AddSwitch("core", "core")
	b.Connect(edge, firewall)
	b.Connect(firewall, core)
	b.Connect(edge, shortcut)
	b.Connect(shortcut, bad)
	b.Connect(bad, core)
	branch := b.AddHost("branch", ip(10, 1, 0, 1), edge)
	server := b.AddHost("server", ip(10, 2, 0, 1), core)
	aux := b.AddHost("aux", ip(10, 3, 0, 1), shortcut)
	top, err := b.Build()
	if err != nil {
		return err
	}

	sys, err := foces.NewSystem(top, foces.PairExact)
	if err != nil {
		return err
	}
	fmt.Println(sys)

	// The policy path for branch->server runs through the firewall.
	path, err := top.ECMPHostPath(branch, server)
	if err != nil {
		return err
	}
	fmt.Print("intended path: ")
	printPath(top, path)
	onFirewall := false
	for _, sw := range path {
		if sw == firewall {
			onFirewall = true
		}
	}
	if !onFirewall {
		return fmt.Errorf("setup error: policy path misses the firewall")
	}

	rng := rand.New(rand.NewSource(7))
	y, err := sys.ObserveCounters(rng, 1000)
	if err != nil {
		return err
	}
	rep, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Mode: foces.ModeFull}})
	if err != nil {
		return err
	}
	fmt.Printf("policy honoured: anomaly index = %.2f\n", rep.Index)

	// The adversary controls the edge switch: it rewrites the
	// branch->server rule to use the shortcut port, bypassing the
	// firewall. Find that rule in the edge switch's table.
	tbl, err := sys.Network().Table(edge)
	if err != nil {
		return err
	}
	var victim foces.Rule
	found := false
	for _, r := range tbl.Dump() {
		src, sok, _ := sys.Layout().SpaceField(r.Match, "src_ip")
		dst, dok, _ := sys.Layout().SpaceField(r.Match, "dst_ip")
		if sok && dok && src == ip(10, 1, 0, 1) && dst == ip(10, 2, 0, 1) {
			victim, found = r, true
		}
	}
	if !found {
		return fmt.Errorf("no branch->server rule on the edge switch")
	}
	port, err := top.PortToward(edge, shortcut)
	if err != nil {
		return err
	}
	bypass := foces.Attack{
		Switch:    edge,
		RuleID:    victim.ID,
		Kind:      foces.AttackPortSwap,
		NewAction: foces.Action{Type: victim.Action.Type, Port: port},
	}
	if err := bypass.Apply(sys.Network()); err != nil {
		return err
	}
	fmt.Printf("\ncompromise: edge rule %d now forwards via the shortcut, skipping the firewall\n", victim.ID)

	y, err = sys.ObserveCounters(rng, 1000)
	if err != nil {
		return err
	}
	rep, err = sys.Run(foces.Observation{Vector: y})
	if err != nil {
		return err
	}
	fmt.Printf("FOCES verdict: anomalous = %v (firewall's counter no longer matches the equation system)\n", rep.Full.Anomalous)
	fmt.Printf("suspect switches: %v\n", rep.Suspects)
	_ = aux
	return nil
}

func printPath(top *foces.Topology, path []foces.SwitchID) {
	for i, id := range path {
		s, err := top.Switch(id)
		if err != nil {
			continue
		}
		if i > 0 {
			fmt.Print(" -> ")
		}
		fmt.Print(s.Name)
	}
	fmt.Println()
}

func ip(a, b, c, d byte) uint64 {
	return uint64(a)<<24 | uint64(b)<<16 | uint64(c)<<8 | uint64(d)
}
