// Clos builds the two-tier leaf-spine fabric the scaled multi-tenant
// experiments run on: every leaf trunks to every spine, hosts hang off
// leaves, and leaf-to-leaf traffic spreads across the spines with
// flow-hashed ECMP. Unlike Build's switch tree, a Clos has path diversity.
//
// Three model conventions fix its schedule, and the clos golden rests on
// all three:
//
//  1. Each NIC's TPU jitter is reseeded from (seed, host index), so a
//     host's noise stream does not depend on how many NICs were built
//     before it on the shared engine RNG.
//  2. Trunk PFC pause/resume reaches the peer switch one trunk propagation
//     delay after it is emitted, as a pause frame on a real cable does.
//     Host-port pause stays synchronous.
//  3. Every trunk and host uplink carries a deterministic picosecond-scale
//     propagation skew (real cable lengths are never identical), so no two
//     paths through the fabric have exactly equal delay and same-instant
//     arrival ties never decide queueing.

package lab

import (
	"fmt"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/verbs"
)

// ClosConfig parameterises a leaf-spine fabric. The zero value of any
// field selects the default noted on it.
type ClosConfig struct {
	Seed         int64
	Profile      nic.Profile
	Leaves       int          // leaf switches; default 2
	Spines       int          // spine switches; default 2
	HostsPerLeaf int          // hosts per leaf, server included on leaf 0; default 2
	TrunkGbps    float64      // leaf-spine trunk rate; default 400
	PropDelay    sim.Duration // per-segment propagation; default 100 ns
	QoS          fabric.QoSConfig
	ServerHW     host.Config // default host.H3
	ClientHW     host.Config // default host.H2
	Switch       fabric.SwitchConfig
}

// noiseStream offsets the DeriveSeed index space used for per-NIC TPU
// jitter so it never collides with InjectLoss's per-link streams.
const noiseStream = 1 << 20

// Clos assembles the fabric. Host 0 on leaf 0 is the server; the remaining
// Leaves*HostsPerLeaf-1 hosts are clients, numbered leaf-major. Non-local
// destinations are published to every other leaf as an ECMP group over all
// spine trunks, so concurrent tenant flows fan out across the spines and
// congestion trees span switches, per the paper's shared-fabric setting.
func Clos(cfg ClosConfig) *Topology {
	if cfg.Leaves <= 0 {
		cfg.Leaves = 2
	}
	if cfg.Spines <= 0 {
		cfg.Spines = 2
	}
	if cfg.HostsPerLeaf <= 0 {
		cfg.HostsPerLeaf = 2
	}
	if cfg.TrunkGbps <= 0 {
		cfg.TrunkGbps = 400
	}
	prop := cfg.PropDelay
	if prop == 0 {
		prop = 100 * sim.Nanosecond
	}
	if cfg.ServerHW.Name == "" {
		cfg.ServerHW = host.H3
	}
	if cfg.ClientHW.Name == "" {
		cfg.ClientHW = host.H2
	}

	eng := sim.NewEngine(cfg.Seed)
	server := verbs.NewContext(eng, "server", cfg.ServerHW, cfg.Profile, 0)
	t := &Topology{
		Eng:      eng,
		Profile:  cfg.Profile,
		Server:   server,
		ServerPD: server.AllocPD(),
	}
	net := verbs.NewNetwork(eng)
	net.PropDelay = prop
	t.Net = net

	leaves := make([]*fabric.Switch, cfg.Leaves)
	spines := make([]*fabric.Switch, cfg.Spines)
	for i := range leaves {
		sc := cfg.Switch
		if sc == (fabric.SwitchConfig{}) {
			sc = DefaultSwitchConfig()
		}
		sc.Name = fmt.Sprintf("leaf%d", i)
		leaves[i] = fabric.NewSwitch(eng, sc)
	}
	for j := range spines {
		sc := cfg.Switch
		if sc == (fabric.SwitchConfig{}) {
			sc = DefaultSwitchConfig()
		}
		sc.Name = fmt.Sprintf("spine%d", j)
		spines[j] = fabric.NewSwitch(eng, sc)
	}
	t.Switches = append(append(t.Switches, leaves...), spines...)

	// Full leaf-spine mesh. leafPorts[i][j] is leaf i's port toward spine j
	// (the members of leaf i's ECMP groups); spinePorts[j][i] is spine j's
	// port toward leaf i.
	leafPorts := make([][]int, cfg.Leaves)
	spinePorts := make([][]int, cfg.Spines)
	for j := range spinePorts {
		spinePorts[j] = make([]int, cfg.Leaves)
	}
	// Convention 3: picosecond-scale, deterministic propagation skew per
	// trunk and per host uplink (cable lengths are never exactly equal in a
	// real pod). Without it, a symmetric fabric produces same-picosecond
	// arrival ties between clients on different leaves, and their order
	// would fall to scheduling sequence instead of the model.
	for i, leaf := range leaves {
		leafPorts[i] = make([]int, cfg.Spines)
		for j, spine := range spines {
			tprop := prop + sim.Duration(i*cfg.Spines+j+1)*sim.Picosecond
			net.PropDelay = tprop
			pl, ps := net.ConnectSwitches(leaf, spine, cfg.TrunkGbps, cfg.QoS)
			leafPorts[i][j] = pl
			spinePorts[j][i] = ps
			t.Links = append(t.Links, leaf.EgressLink(pl), spine.EgressLink(ps))
			// Convention 2: the relay on the leaf's port pauses the spine's
			// egress link (the leaf's upstream), and vice versa.
			leaf.SetPauseRelay(pl, delayedPause(eng, tprop, spine.EgressLink(ps)))
			spine.SetPauseRelay(ps, delayedPause(eng, tprop, leaf.EgressLink(pl)))
		}
	}
	net.PropDelay = prop

	// Hosts, leaf-major.
	var serverUp *fabric.Link
	hostIdx := 0
	for i, leaf := range leaves {
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			// Per-host cable skew (convention 3, host side).
			net.PropDelay = prop + sim.Duration(hostIdx+1)*sim.Picosecond
			var ctx *verbs.Context
			if i == 0 && h == 0 {
				ctx = server
			} else {
				ctx = verbs.NewContext(eng, fmt.Sprintf("client%d", len(t.Clients)),
					cfg.ClientHW, cfg.Profile, 0)
			}
			port, up := net.AttachToSwitch(ctx, leaf, cfg.QoS)
			t.Links = append(t.Links, up, leaf.EgressLink(port))
			addr := net.Addr(ctx)
			for j, spine := range spines {
				spine.Route(addr, spinePorts[j][i])
			}
			for k, other := range leaves {
				if k != i {
					other.RouteECMP(addr, leafPorts[k])
				}
			}
			// Convention 1: jitter streams keyed by host index.
			ctx.NIC().TPU().ReseedNoise(sim.DeriveSeed(cfg.Seed, noiseStream+uint64(hostIdx)))
			hostIdx++
			if ctx == server {
				serverUp = up
				continue
			}
			net.SetPath(ctx, server, up)
			net.SetPath(server, ctx, serverUp)
			t.Clients = append(t.Clients, ctx)
		}
	}
	return t
}

// delayedPause returns a trunk pause relay: the PFC frame reaches the
// peer's egress link one propagation delay after it is emitted.
func delayedPause(eng *sim.Engine, prop sim.Duration, target *fabric.Link) func(int, bool) {
	return func(tc int, pause bool) {
		if pause {
			eng.After(prop, func() { target.PauseTC(tc) })
		} else {
			eng.After(prop, func() { target.ResumeTC(tc) })
		}
	}
}
