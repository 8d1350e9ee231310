package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"foces"
)

// poolSize is the length of one schedule cycle: the generator replays
// poolSize pre-generated counter intervals over and over, and every
// scheduled event (attack, rule update, fault) sits at a fixed offset
// inside the cycle.
const poolSize = 64

// Offsets inside a cycle. Attacked intervals never overlap a fault or a
// rule update, so detection quality is measured on the paths built for
// it and stays comparable across seeds.
const (
	attackFrom = 40 // first attacked interval (port swap applied)
	attackTo   = 48 // first interval after the attack is reverted
	addAt      = 8  // disrupted: phantom rule installed before this window
	modifyAt   = 24 // disrupted: phantom rule rewritten
	removeAt   = 56 // disrupted: phantom rule removed
	silentAt   = 16 // disrupted: one switch goes silent for this window
	resetAt    = 30 // disrupted: one switch restarts its counters
)

// fabric is the monitored network: a fat-tree, a seeded-random set of
// PairExact flows with their per-interval volumes, and the rule layout
// the generator needs to cut a counter vector into per-switch
// snapshots.
type fabric struct {
	k        int
	top      *foces.Topology
	pairs    [][2]foces.HostID
	traffic  foces.TrafficMatrix
	switches []foces.SwitchID // ascending
	// rulesBySwitch lists the baseline rule IDs hosted on each switch,
	// indexed like switches.
	rulesBySwitch [][]int
	ruleSpace     int
	// faultSwitches are the switches with traffic-carrying rules, the
	// ones a counter reset is visible on; silent and reset faults
	// rotate through them.
	faultSwitches []int
	phantomIP     uint64
}

// newFabric builds FatTree(k) and draws flows distinct ordered host
// pairs and their volumes from seed.
func newFabric(k, flows int, seed int64) (*fabric, error) {
	top, err := foces.FatTree(k)
	if err != nil {
		return nil, err
	}
	hosts := top.Hosts()
	if max := len(hosts) * (len(hosts) - 1); flows < 1 || flows > max {
		return nil, fmt.Errorf("flows %d outside [1, %d] for FatTree(%d)", flows, max, k)
	}
	rng := rand.New(rand.NewSource(seed))
	f := &fabric{k: k, top: top, traffic: make(foces.TrafficMatrix, flows)}
	for len(f.pairs) < flows {
		src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		key := foces.FlowKey{Src: src.ID, Dst: dst.ID}
		if src.ID == dst.ID {
			continue
		}
		if _, dup := f.traffic[key]; dup {
			continue
		}
		f.traffic[key] = uint64(500 + rng.Intn(1000))
		f.pairs = append(f.pairs, [2]foces.HostID{src.ID, dst.ID})
	}
	for _, sw := range top.Switches() {
		f.switches = append(f.switches, sw.ID)
	}
	sort.Slice(f.switches, func(i, j int) bool { return f.switches[i] < f.switches[j] })
	for _, h := range hosts {
		if h.IP >= f.phantomIP {
			f.phantomIP = h.IP + 1
		}
	}
	return f, nil
}

// index records the baseline rule layout of a system built over the
// fabric's pairs.
func (f *fabric) index(sys *foces.System) {
	pos := make(map[foces.SwitchID]int, len(f.switches))
	for i, sw := range f.switches {
		pos[sw] = i
	}
	f.rulesBySwitch = make([][]int, len(f.switches))
	for _, r := range sys.Controller().Rules() {
		i := pos[r.Switch]
		f.rulesBySwitch[i] = append(f.rulesBySwitch[i], r.ID)
	}
	f.ruleSpace = sys.Controller().RuleSpace()
}

// pool is one cycle of pre-generated per-interval counter deltas,
// indexed [interval][rule ID], with the ground-truth attack label of
// each interval.
type pool struct {
	deltas   [][]uint64
	attacked []bool
	attack   foces.Attack
}

// generatePool simulates poolSize collection intervals on the twin
// system with the fabric's own traffic matrix, applying the cycle's
// port-swap attack to the twin's data plane over [attackFrom,
// attackTo). The twin must have been built over the same pairs as the
// system under test, so rule IDs agree.
func generatePool(twin *foces.System, f *fabric, wl workload, seed int64) (*pool, error) {
	net := twin.Network()
	if err := net.SetLinkLoss(wl.loss); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	p := &pool{deltas: make([][]uint64, poolSize), attacked: make([]bool, poolSize)}
	for j := 0; j < poolSize; j++ {
		switch j {
		case attackFrom:
			atk, err := twin.InjectRandomAttack(rng, foces.AttackPortSwap)
			if err != nil {
				return nil, err
			}
			p.attack = atk
		case attackTo:
			if err := p.attack.Revert(net); err != nil {
				return nil, err
			}
		}
		y, err := twin.ObserveCountersFor(rng, f.traffic)
		if err != nil {
			return nil, err
		}
		row := make([]uint64, f.ruleSpace)
		for r := range row {
			if r < len(y) {
				row[r] = uint64(y[r])
			}
		}
		p.deltas[j] = row
		p.attacked[j] = j >= attackFrom && j < attackTo
	}
	// Silent and reset faults only make sense on switches whose
	// counters move.
	for i, rules := range f.rulesBySwitch {
		for _, r := range rules {
			if p.deltas[0][r] > 0 {
				f.faultSwitches = append(f.faultSwitches, i)
				break
			}
		}
	}
	if len(f.faultSwitches) == 0 {
		return nil, fmt.Errorf("no switch carries traffic")
	}
	return p, nil
}

// digest fingerprints everything the generator feeds the system: the
// flows, their volumes, the attack and every pool interval.
func (p *pool) digest(f *fabric) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, pr := range f.pairs {
		word(uint64(pr[0]))
		word(uint64(pr[1]))
		word(f.traffic[foces.FlowKey{Src: pr[0], Dst: pr[1]}])
	}
	word(uint64(p.attack.Switch))
	word(uint64(p.attack.RuleID))
	word(uint64(p.attack.NewAction.Port))
	for _, row := range p.deltas {
		for _, v := range row {
			word(v)
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// ruleOp is a scheduled rule update on the disrupted workload.
type ruleOp int

const (
	opNone ruleOp = iota
	opAdd
	opModify
	opRemove
)

func (o ruleOp) String() string {
	return [...]string{"none", "add", "modify", "remove"}[o]
}

// event is what the schedule does before and during window i (i >= 1;
// window 0 primes every switch's baseline).
type event struct {
	j      int    // pool interval replayed in this window
	op     ruleOp // rule update applied before the window's pushes
	silent int    // switch index that stays silent, -1 for none
	reset  int    // switch index that restarts its counters, -1 for none
}

// schedule returns window i's events for the workload.
func schedule(wl workload, f *fabric, i int) event {
	j := (i - 1) % poolSize
	ev := event{j: j, silent: -1, reset: -1}
	if i < 1 {
		ev.j = 0
		return ev
	}
	if wl.churn {
		switch j {
		case addAt:
			ev.op = opAdd
		case modifyAt:
			ev.op = opModify
		case removeAt:
			ev.op = opRemove
		}
	}
	if wl.faults {
		cycle := (i - 1) / poolSize
		n := len(f.faultSwitches)
		switch j {
		case silentAt:
			ev.silent = f.faultSwitches[(2*cycle)%n]
		case resetAt:
			ev.reset = f.faultSwitches[(2*cycle+1)%n]
		}
	}
	return ev
}

// phantom is the disrupted workload's churned rule: an exact match on a
// source address no host owns, so installing, rewriting and removing
// it changes the FCM's rows and epochs but reroutes no traffic, and the
// pre-generated counters stay valid in every cycle.
type phantom struct {
	installed bool
	rule      foces.Rule
	sw        int // switch index
}

// applyOp performs one scheduled rule update on sys through its public
// API. The phantom rule lives on a switch chosen by cycle.
func applyOp(sys *foces.System, f *fabric, ph *phantom, op ruleOp, cycle int) error {
	layout := sys.Layout()
	switch op {
	case opAdd:
		ph.sw = (cycle * 7) % len(f.switches)
		match, err := layout.MatchExact(layout.Wildcard(), "src_ip", f.phantomIP)
		if err != nil {
			return err
		}
		r, _, err := sys.AddRule(f.switches[ph.sw], 600, match, foces.Action{Type: foces.ActionDrop})
		if err != nil {
			return fmt.Errorf("add rule: %w", err)
		}
		ph.rule, ph.installed = r, true
	case opModify:
		match, err := layout.MatchExact(layout.Wildcard(), "src_ip", f.phantomIP+1)
		if err != nil {
			return err
		}
		if _, err := sys.ModifyRule(ph.rule.ID, 601, match, foces.Action{Type: foces.ActionDrop}); err != nil {
			return fmt.Errorf("modify rule %d: %w", ph.rule.ID, err)
		}
	case opRemove:
		if _, err := sys.RemoveRule(ph.rule.ID); err != nil {
			return fmt.Errorf("remove rule %d: %w", ph.rule.ID, err)
		}
		ph.installed = false
	}
	return nil
}
