package foces_test

import (
	"fmt"
	"math/rand"

	"foces"
)

// ExampleNewSystem shows the basic detect-localize-repair loop on a
// fat-tree data center.
func ExampleNewSystem() {
	top, err := foces.FatTree(4)
	if err != nil {
		panic(err)
	}
	sys, err := foces.NewSystem(top, foces.PairExact)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(1))

	y, _ := sys.ObserveCounters(rng, 1000)
	rep, _ := sys.Run(foces.Observation{Vector: y})
	fmt.Println("clean anomalous:", rep.Anomalous)

	atk, _ := sys.InjectRandomAttack(rng, foces.AttackPortSwap)
	y, _ = sys.ObserveCounters(rng, 1000)
	rep, _ = sys.Run(foces.Observation{Vector: y})
	fmt.Println("attacked anomalous:", rep.Anomalous)

	_ = atk.Revert(sys.Network())
	// Output:
	// clean anomalous: false
	// attacked anomalous: true
}

// ExampleDetect reproduces the paper's Fig. 2 worked example: the
// observed counters leave a residual of 3 at rule r4, which no flow
// volume assignment can explain.
func ExampleDetect() {
	b := foces.NewTopologyBuilder("fig2")
	ids := make([]foces.SwitchID, 6)
	for i := range ids {
		ids[i] = b.AddSwitch(fmt.Sprintf("S%d", i), "")
	}
	b.Connect(ids[0], ids[1])
	b.Connect(ids[1], ids[2])
	b.Connect(ids[2], ids[5])
	b.Connect(ids[1], ids[3])
	b.Connect(ids[3], ids[4])
	b.Connect(ids[4], ids[5])
	top, err := b.Build()
	if err != nil {
		panic(err)
	}
	layout := foces.FiveTuple()
	rules := make([]foces.Rule, 6)
	for i := range rules {
		rules[i] = foces.Rule{
			ID: i, Switch: ids[i], Match: layout.Wildcard(),
			Action: foces.Action{Type: foces.ActionOutput},
		}
	}
	f, err := foces.FCMFromHistories(top, rules, [][]int{
		{0, 1, 2, 5}, // flow a
		{2, 5},       // flow b
		{4, 5},       // flow c
	})
	if err != nil {
		panic(err)
	}
	res, err := foces.Detect(f, []float64{3, 3, 4, 3, 8, 12}, foces.DetectOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("X̂ = (%.0f, %.0f, %.0f), anomalous = %v\n",
		res.XHat[0], res.XHat[1], res.XHat[2], res.Anomalous)
	// Output:
	// X̂ = (3, 1, 8), anomalous = true
}
