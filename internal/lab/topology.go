// Topology is the declarative successor to the fixed two/three-host rig:
// the same server-plus-clients threat model, but with the wiring — direct
// cables, a shared switch, dual rails, or an arbitrary switch tree — chosen
// per scenario. Pair reproduces the legacy Cluster byte-for-byte; Star and
// DualRail are the shapes the multi-tenant experiments need; Build accepts
// an explicit Spec for anything else.

package lab

import (
	"fmt"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/verbs"
)

// Topology is a built scenario: one server context, N client contexts, and
// every fabric element between them. Cluster is an alias of this type, so
// all pre-switch code keeps compiling unchanged.
type Topology struct {
	Eng      *sim.Engine
	Profile  nic.Profile
	Net      *verbs.Network
	Server   *verbs.Context
	ServerPD *verbs.PD
	Clients  []*verbs.Context
	// Links lists every fabric link — host uplinks, switch egress ports,
	// trunks — in deterministic build order, so loss experiments can install
	// fault plans and read drop counters on any segment.
	Links []*fabric.Link
	// Switches lists every switch in build order (empty for Pair).
	Switches []*fabric.Switch
}

// Run executes the topology until its engine is idle.
func (t *Topology) Run() { t.Eng.Run() }

// RunUntil executes until the given virtual time.
func (t *Topology) RunUntil(deadline sim.Time) { t.Eng.RunUntil(deadline) }

// RunFor advances the topology by d from its current time.
func (t *Topology) RunFor(d sim.Duration) { t.RunUntil(t.Now().Add(d)) }

// Now returns the topology's current virtual time.
func (t *Topology) Now() sim.Time { return t.Eng.Now() }

// DrainCheck reports an error if the engine still has live events — the
// end-of-run leak oracle.
func (t *Topology) DrainCheck() error { return t.Eng.DrainCheck() }

// DefaultSwitchConfig is the shared-buffer switch used when a switched
// topology is requested without explicit switch parameters: a 300 ns
// store-and-forward latency, a 1 MiB shared pool, and PFC thresholds tight
// enough that a congested egress port visibly pauses its upstream ports.
func DefaultSwitchConfig() fabric.SwitchConfig {
	return fabric.SwitchConfig{
		Name:           "sw0",
		FwdDelay:       300 * sim.Nanosecond,
		SharedBufBytes: 1 << 20,
		XOffBytes:      96 << 10,
		XOnBytes:       48 << 10,
	}
}

// fillDefaults applies the Config defaults shared by every constructor.
func fillDefaults(cfg Config) Config {
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.ServerHW.Name == "" {
		cfg.ServerHW = host.H3
	}
	if cfg.ClientHW.Name == "" {
		cfg.ClientHW = host.H2
	}
	return cfg
}

// switchCfg picks the configured switch parameters or the defaults, naming
// the instance swN for multi-switch shapes.
func switchCfg(cfg Config, n int) fabric.SwitchConfig {
	sc := cfg.Switch
	if sc == (fabric.SwitchConfig{}) {
		sc = DefaultSwitchConfig()
	}
	if n > 0 || sc.Name == "" {
		sc.Name = fmt.Sprintf("sw%d", n)
	}
	return sc
}

// Pair wires every client straight to the server over a dedicated full-
// duplex wire — the legacy Cluster shape. Construction order (and therefore
// every RNG draw and event) matches the pre-topology lab.New exactly, which
// is what keeps the fig4–fig13/table5/lossgrid goldens byte-identical.
func Pair(cfg Config) *Topology {
	cfg = fillDefaults(cfg)
	eng := sim.NewEngine(cfg.Seed)
	// The Grain-III/IV methodology disables DDIO to remove cache-induced
	// variance; the host default is already DDIO-off.
	server := verbs.NewContext(eng, "server", cfg.ServerHW, cfg.Profile, 0)
	t := &Topology{
		Eng:      eng,
		Profile:  cfg.Profile,
		Server:   server,
		ServerPD: server.AllocPD(),
	}
	net := verbs.NewNetwork(eng)
	// Same-rack cabling: the paper's hosts sit under one switch.
	net.PropDelay = 200 * sim.Nanosecond
	t.Net = net
	for i := 0; i < cfg.Clients; i++ {
		cl := verbs.NewContext(eng, fmt.Sprintf("client%d", i), cfg.ClientHW, cfg.Profile, 0)
		w := net.ConnectContexts(cl, server, cfg.QoS)
		t.Links = append(t.Links, w.AtoB, w.BtoA)
		t.Clients = append(t.Clients, cl)
	}
	return t
}

// Star hangs the server and every client off one shared switch — the
// noisy-neighbor shape: all client traffic toward the server converges on a
// single egress port. Per-segment propagation is 100 ns, so the server path
// totals the Pair topology's 200 ns of cable plus the switch's forwarding
// delay and any queueing.
func Star(cfg Config) *Topology {
	cfg = fillDefaults(cfg)
	eng := sim.NewEngine(cfg.Seed)
	server := verbs.NewContext(eng, "server", cfg.ServerHW, cfg.Profile, 0)
	t := &Topology{
		Eng:      eng,
		Profile:  cfg.Profile,
		Server:   server,
		ServerPD: server.AllocPD(),
	}
	net := verbs.NewNetwork(eng)
	net.PropDelay = 100 * sim.Nanosecond
	t.Net = net
	sw := fabric.NewSwitch(eng, switchCfg(cfg, 0))
	t.Switches = []*fabric.Switch{sw}
	sPort, sUp := net.AttachToSwitch(server, sw, cfg.QoS)
	t.Links = append(t.Links, sUp, sw.EgressLink(sPort))
	for i := 0; i < cfg.Clients; i++ {
		cl := verbs.NewContext(eng, fmt.Sprintf("client%d", i), cfg.ClientHW, cfg.Profile, 0)
		cPort, cUp := net.AttachToSwitch(cl, sw, cfg.QoS)
		net.SetPath(cl, server, cUp)
		net.SetPath(server, cl, sUp)
		t.Clients = append(t.Clients, cl)
		t.Links = append(t.Links, cUp, sw.EgressLink(cPort))
	}
	return t
}

// DualRail builds two independent switches (rails) with the server
// dual-homed on both; client i lands on rail i%2. Traffic between a client
// and the server stays on the client's rail, so the two rails only share
// the server's NIC — the shape for isolating switch-level interference from
// NIC-level interference.
func DualRail(cfg Config) *Topology {
	cfg = fillDefaults(cfg)
	eng := sim.NewEngine(cfg.Seed)
	server := verbs.NewContext(eng, "server", cfg.ServerHW, cfg.Profile, 0)
	t := &Topology{
		Eng:      eng,
		Profile:  cfg.Profile,
		Server:   server,
		ServerPD: server.AllocPD(),
	}
	net := verbs.NewNetwork(eng)
	net.PropDelay = 100 * sim.Nanosecond
	t.Net = net
	var serverUp [2]*fabric.Link
	for r := 0; r < 2; r++ {
		sw := fabric.NewSwitch(eng, switchCfg(cfg, r))
		t.Switches = append(t.Switches, sw)
		p, up := net.AttachToSwitch(server, sw, cfg.QoS)
		serverUp[r] = up
		t.Links = append(t.Links, up, sw.EgressLink(p))
	}
	for i := 0; i < cfg.Clients; i++ {
		rail := i % 2
		sw := t.Switches[rail]
		cl := verbs.NewContext(eng, fmt.Sprintf("client%d", i), cfg.ClientHW, cfg.Profile, 0)
		cPort, cUp := net.AttachToSwitch(cl, sw, cfg.QoS)
		net.SetPath(cl, server, cUp)
		net.SetPath(server, cl, serverUp[rail])
		t.Clients = append(t.Clients, cl)
		t.Links = append(t.Links, cUp, sw.EgressLink(cPort))
	}
	return t
}

// SwitchSpec places one switch in a Spec. Trunk names an earlier switch
// index this switch uplinks to (-1 or self-index for a root); TrunkGbps
// defaults to 400.
type SwitchSpec struct {
	Cfg       fabric.SwitchConfig
	Trunk     int
	TrunkGbps float64
}

// Spec describes an arbitrary switched topology: a tree of switches, the
// server on one of them, and each client assigned a home switch.
type Spec struct {
	Seed      int64
	Profile   nic.Profile
	QoS       fabric.QoSConfig
	PropDelay sim.Duration // per segment; 0 means 100 ns
	ServerHW  host.Config
	ClientHW  host.Config

	Switches     []SwitchSpec
	ServerSwitch int   // index into Switches
	ClientSwitch []int // one home-switch index per client
}

// Build assembles a Spec. Switch trunks must form a forest with earlier
// indices as parents (Trunk < index); routes between any two reachable
// hosts are installed along the unique tree path. It panics on a malformed
// spec — specs are authored in code, not loaded from input.
func Build(spec Spec) *Topology {
	if len(spec.Switches) == 0 {
		panic("lab: Build needs at least one switch")
	}
	if spec.ServerSwitch < 0 || spec.ServerSwitch >= len(spec.Switches) {
		panic("lab: ServerSwitch out of range")
	}
	prop := spec.PropDelay
	if prop == 0 {
		prop = 100 * sim.Nanosecond
	}
	cfg := fillDefaults(Config{
		Seed: spec.Seed, Profile: spec.Profile, Clients: len(spec.ClientSwitch),
		QoS: spec.QoS, ServerHW: spec.ServerHW, ClientHW: spec.ClientHW,
	})
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

	// Switches first, trunked to their parents as they appear.
	n := len(spec.Switches)
	trunkPort := make([][]int, n) // trunkPort[a][b] = port on a toward b, -1 none
	for i := range trunkPort {
		trunkPort[i] = make([]int, n)
		for j := range trunkPort[i] {
			trunkPort[i][j] = -1
		}
	}
	for i, ss := range spec.Switches {
		sc := ss.Cfg
		if sc == (fabric.SwitchConfig{}) {
			sc = DefaultSwitchConfig()
		}
		sc.Name = fmt.Sprintf("sw%d", i)
		t.Switches = append(t.Switches, fabric.NewSwitch(eng, sc))
		if ss.Trunk >= 0 && ss.Trunk != i {
			if ss.Trunk > i {
				panic("lab: switch trunks must point to earlier switches")
			}
			rate := ss.TrunkGbps
			if rate <= 0 {
				rate = 400
			}
			pp, pc := net.ConnectSwitches(t.Switches[ss.Trunk], t.Switches[i], rate, cfg.QoS)
			trunkPort[ss.Trunk][i] = pp
			trunkPort[i][ss.Trunk] = pc
			t.Links = append(t.Links, t.Switches[ss.Trunk].EgressLink(pp), t.Switches[i].EgressLink(pc))
		}
	}
	// nextPort[s][d]: the port on switch s that leads toward switch d along
	// the tree, found by BFS per destination (n is tiny).
	nextPort := make([][]int, n)
	for s := range nextPort {
		nextPort[s] = make([]int, n)
		for d := range nextPort[s] {
			nextPort[s][d] = -1
		}
	}
	for d := 0; d < n; d++ {
		// BFS outward from d; first hop back toward d is via the parent in
		// the BFS tree.
		visited := make([]bool, n)
		queue := []int{d}
		visited[d] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for nb := 0; nb < n; nb++ {
				if trunkPort[nb][cur] < 0 || visited[nb] {
					continue
				}
				visited[nb] = true
				nextPort[nb][d] = trunkPort[nb][cur]
				queue = append(queue, nb)
			}
		}
	}
	// installRoutes publishes one host address (homed on switch `home`) to
	// every switch that can reach it.
	installRoutes := func(addr uint32, home int) {
		for s := 0; s < n; s++ {
			if s == home {
				continue // AttachToSwitch installed the local route
			}
			if p := nextPort[s][home]; p >= 0 {
				t.Switches[s].Route(addr, p)
			}
		}
	}

	sPort, sUp := net.AttachToSwitch(server, t.Switches[spec.ServerSwitch], cfg.QoS)
	t.Links = append(t.Links, sUp, t.Switches[spec.ServerSwitch].EgressLink(sPort))
	installRoutes(net.Addr(server), spec.ServerSwitch)

	for i, home := range spec.ClientSwitch {
		if home < 0 || home >= n {
			panic("lab: ClientSwitch index out of range")
		}
		cl := verbs.NewContext(eng, fmt.Sprintf("client%d", i), cfg.ClientHW, cfg.Profile, 0)
		cPort, cUp := net.AttachToSwitch(cl, t.Switches[home], cfg.QoS)
		installRoutes(net.Addr(cl), home)
		net.SetPath(cl, server, cUp)
		net.SetPath(server, cl, sUp)
		t.Clients = append(t.Clients, cl)
		t.Links = append(t.Links, cUp, t.Switches[home].EgressLink(cPort))
	}
	return t
}
