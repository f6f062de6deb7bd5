package dynamic

// Scenario drivers: composable, seeded, replayable workload scripts for
// stress-testing online assignment. A Scenario owns a coordinate-based
// population and accumulates event tapes from independent drivers —
// background Poisson churn, flash crowds aimed at one region, diurnal
// (sinusoidal-rate) join waves, correlated server-failure storms, and
// coordinate drift that physically moves clients through the latency
// space. Each driver consumes its own seeded rng and claims a disjoint
// slice of the client pool, so drivers compose without conflicting and
// the whole scenario replays bit-identically for a given seed set.
//
// Scenarios are deliberately neutral about the execution substrate.
// ScenarioTape turns one into a single event tape, and RunTape walks
// that tape over a target: the pure simulator in this package
// (SimulateScenario) or the sharded plane (shard.Plane.Replay).
// cmd/diasim also converts the kill/partition schedules into a
// live.FaultPlan to run the same script against real TCP servers.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"diacap/internal/coords"
	"diacap/internal/core"
	"diacap/internal/latency"
)

// ServerKill schedules the failure of one server (instance-local
// index). RestartAt <= Time means the server never comes back.
type ServerKill struct {
	Time      float64
	Server    int
	RestartAt float64
}

// PartitionWindow isolates a set of servers (instance-local indices)
// from the rest of the topology for [Start, End). The pure simulator
// ignores partitions — an assignment is software state, not a packet —
// but live mode converts each window into FaultPlan partitions that cut
// the real TCP links.
type PartitionWindow struct {
	Start, End float64
	Servers    []int
}

// DriftSnapshot is the population's drifted geometry taking effect at
// Time: the node-indexed coordinates and the instance built from them.
type DriftSnapshot struct {
	Time     float64
	Coords   []latency.Coord
	Instance *core.Instance
}

// Population is a coordinate-embedded node set split into servers and
// clients, with the matching assignment instance.
type Population struct {
	// Coords holds every node's network coordinate.
	Coords []latency.Coord
	// Servers and Clients are node indices; Clients[i] is the node of
	// instance-local client i.
	Servers, Clients []int
	// Instance is the assignment instance NewInstanceCoords builds over
	// Coords.
	Instance *core.Instance
}

// NewPopulation scatters numNodes synthetic coordinates and promotes a
// random numServers of them to servers.
func NewPopulation(numNodes, numServers int, seed int64) (*Population, error) {
	if numServers <= 0 || numServers >= numNodes {
		return nil, fmt.Errorf("dynamic: need 0 < servers (%d) < nodes (%d)", numServers, numNodes)
	}
	cs, err := latency.GenerateCoords(latency.DefaultConfig(numNodes), seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(numNodes)
	servers := append([]int(nil), perm[:numServers]...)
	clients := append([]int(nil), perm[numServers:]...)
	sort.Ints(servers)
	sort.Ints(clients)
	in, err := core.NewInstanceCoords(cs, servers, clients)
	if err != nil {
		return nil, err
	}
	return &Population{Coords: cs, Servers: servers, Clients: clients, Instance: in}, nil
}

// Scenario is a replayable workload script over one population.
type Scenario struct {
	Name    string
	Pop     *Population
	Horizon float64
	// Events is the merged churn tape (sorted by Finalize).
	Events []Event
	// Kills is the correlated-failure schedule.
	Kills []ServerKill
	// Partitions are live-mode partition windows.
	Partitions []PartitionWindow
	// Snapshots is the coordinate-drift schedule (at most one AddDrift).
	Snapshots []DriftSnapshot

	// unclaimed is the pool of instance-local client indices no driver
	// has taken yet, ascending.
	unclaimed []int
	finalized bool
}

// NewScenario starts an empty scenario over pop.
func NewScenario(name string, pop *Population, horizon float64) (*Scenario, error) {
	if pop == nil || pop.Instance == nil {
		return nil, errors.New("dynamic: nil population")
	}
	if horizon <= 0 {
		return nil, errors.New("dynamic: horizon must be positive")
	}
	sc := &Scenario{Name: name, Pop: pop, Horizon: horizon}
	sc.unclaimed = make([]int, pop.Instance.NumClients())
	for i := range sc.unclaimed {
		sc.unclaimed[i] = i
	}
	return sc, nil
}

// Unclaimed reports how many clients remain available to drivers.
func (sc *Scenario) Unclaimed() int { return len(sc.unclaimed) }

// share converts a fraction of the remaining pool into a count,
// guaranteeing at least one client while any remain.
func (sc *Scenario) share(fraction float64) (int, error) {
	if fraction <= 0 || fraction > 1 {
		return 0, fmt.Errorf("dynamic: client fraction %v outside (0, 1]", fraction)
	}
	if len(sc.unclaimed) == 0 {
		return 0, errors.New("dynamic: client pool exhausted (drivers claimed everyone)")
	}
	n := int(math.Round(fraction * float64(len(sc.unclaimed))))
	if n < 1 {
		n = 1
	}
	if n > len(sc.unclaimed) {
		n = len(sc.unclaimed)
	}
	return n, nil
}

// takeAny claims the n lowest-indexed unclaimed clients.
func (sc *Scenario) takeAny(n int) []int {
	taken := append([]int(nil), sc.unclaimed[:n]...)
	sc.unclaimed = sc.unclaimed[n:]
	return taken
}

// takeNearest claims the n unclaimed clients nearest the target
// coordinate (ties broken by index, so the claim is deterministic).
func (sc *Scenario) takeNearest(target latency.Coord, n int) []int {
	type cand struct {
		client int
		dist   float64
	}
	cands := make([]cand, len(sc.unclaimed))
	for i, c := range sc.unclaimed {
		node := sc.Pop.Clients[c]
		cands[i] = cand{client: c, dist: sc.Pop.Coords[node].LatencyTo(target)}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if c := cmp.Compare(cands[i].dist, cands[j].dist); c != 0 {
			return c < 0
		}
		return cands[i].client < cands[j].client
	})
	taken := make([]int, n)
	for i := range taken {
		taken[i] = cands[i].client
	}
	sort.Ints(taken)
	rest := make([]int, 0, len(cands)-n)
	for _, c := range cands[n:] {
		rest = append(rest, c.client)
	}
	sort.Ints(rest)
	sc.unclaimed = rest
	return taken
}

// BackgroundChurnConfig parameterizes steady Poisson churn.
type BackgroundChurnConfig struct {
	// ClientFraction of the remaining pool to claim (default 1 = rest).
	ClientFraction float64
	// MeanInterarrival between joins (ms).
	MeanInterarrival float64
	// MeanSession length (ms, exponential).
	MeanSession float64
	// InitialActiveFraction of the claimed clients joined at t=0.
	InitialActiveFraction float64
}

// AddBackgroundChurn claims part of the pool and runs the standard
// Poisson churn generator over it.
func (sc *Scenario) AddBackgroundChurn(cfg BackgroundChurnConfig, seed int64) error {
	if cfg.ClientFraction == 0 {
		cfg.ClientFraction = 1
	}
	n, err := sc.share(cfg.ClientFraction)
	if err != nil {
		return err
	}
	if cfg.InitialActiveFraction < 0 || cfg.InitialActiveFraction > 1 {
		return fmt.Errorf("dynamic: InitialActiveFraction %v outside [0, 1]", cfg.InitialActiveFraction)
	}
	pool := sc.takeAny(n)
	events, err := GenerateChurnPool(pool, ChurnConfig{
		NumClients:       len(pool),
		Horizon:          sc.Horizon,
		MeanInterarrival: cfg.MeanInterarrival,
		MeanSession:      cfg.MeanSession,
		InitialActive:    int(math.Round(cfg.InitialActiveFraction * float64(len(pool)))),
	}, seed)
	if err != nil {
		return err
	}
	sc.Events = append(sc.Events, events...)
	return nil
}

// FlashCrowdConfig parameterizes a burst of geographically clustered
// joins: the claimed clients are the ones nearest a random epicenter,
// and they all arrive within one short window — the "everyone in one
// region piles in at once" failure mode.
type FlashCrowdConfig struct {
	// ClientFraction of the remaining pool forming the crowd.
	ClientFraction float64
	// Start of the burst window (ms).
	Start float64
	// Window over which crowd joins arrive uniformly (ms).
	Window float64
	// MeanSession of crowd members (ms, exponential); 0 = stay to the
	// horizon.
	MeanSession float64
}

// AddFlashCrowd claims the clients nearest a seeded-random epicenter
// and scripts their burst arrival.
func (sc *Scenario) AddFlashCrowd(cfg FlashCrowdConfig, seed int64) error {
	if cfg.ClientFraction == 0 {
		cfg.ClientFraction = 0.25
	}
	n, err := sc.share(cfg.ClientFraction)
	if err != nil {
		return err
	}
	if cfg.Start < 0 || cfg.Start >= sc.Horizon {
		return fmt.Errorf("dynamic: flash crowd start %v outside [0, %v)", cfg.Start, sc.Horizon)
	}
	if cfg.Window <= 0 {
		return errors.New("dynamic: flash crowd window must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	epicenterClient := sc.unclaimed[rng.Intn(len(sc.unclaimed))]
	epicenter := sc.Pop.Coords[sc.Pop.Clients[epicenterClient]]
	crowd := sc.takeNearest(epicenter, n)

	for _, c := range crowd {
		at := cfg.Start + rng.Float64()*cfg.Window
		if at >= sc.Horizon {
			continue
		}
		sc.Events = append(sc.Events, Event{Time: at, Kind: Join, Client: c})
		if cfg.MeanSession > 0 {
			if end := at + rng.ExpFloat64()*cfg.MeanSession; end < sc.Horizon {
				sc.Events = append(sc.Events, Event{Time: end, Kind: Leave, Client: c})
			}
		}
	}
	return nil
}

// DiurnalConfig parameterizes a non-homogeneous Poisson join process
// with sinusoidal rate λ(t) = (1 + A·sin(2πt/Period)) / MeanInterarrival
// — the day/night load cycle of a planetary application.
type DiurnalConfig struct {
	// ClientFraction of the remaining pool to claim (default 1 = rest).
	ClientFraction float64
	// MeanInterarrival between joins at the baseline rate (ms).
	MeanInterarrival float64
	// Amplitude A in [0, 1): peak rate is (1+A)×, trough (1−A)×.
	Amplitude float64
	// Period of the cycle (ms).
	Period float64
	// MeanSession length (ms, exponential).
	MeanSession float64
	// InitialActiveFraction of the claimed clients joined at t=0.
	InitialActiveFraction float64
}

// AddDiurnalChurn claims part of the pool and scripts sinusoidal-rate
// churn over it via thinning (Lewis & Shedler): candidate arrivals at
// the peak rate λmax are accepted with probability λ(t)/λmax, which
// realizes the exact non-homogeneous process.
func (sc *Scenario) AddDiurnalChurn(cfg DiurnalConfig, seed int64) error {
	if cfg.ClientFraction == 0 {
		cfg.ClientFraction = 1
	}
	n, err := sc.share(cfg.ClientFraction)
	if err != nil {
		return err
	}
	switch {
	case cfg.MeanInterarrival <= 0 || cfg.MeanSession <= 0:
		return errors.New("dynamic: diurnal mean interarrival and session must be positive")
	case cfg.Amplitude < 0 || cfg.Amplitude >= 1:
		return fmt.Errorf("dynamic: diurnal amplitude %v outside [0, 1)", cfg.Amplitude)
	case cfg.Period <= 0:
		return errors.New("dynamic: diurnal period must be positive")
	case cfg.InitialActiveFraction < 0 || cfg.InitialActiveFraction > 1:
		return fmt.Errorf("dynamic: InitialActiveFraction %v outside [0, 1]", cfg.InitialActiveFraction)
	}
	pool := sc.takeAny(n)
	rng := rand.New(rand.NewSource(seed))

	var events, departures []Event
	idle := append([]int(nil), pool...)
	pickIdle := func() int {
		if len(idle) == 0 {
			return -1
		}
		i := rng.Intn(len(idle))
		c := idle[i]
		idle[i] = idle[len(idle)-1]
		idle = idle[:len(idle)-1]
		return c
	}
	join := func(c int, at float64) {
		events = append(events, Event{Time: at, Kind: Join, Client: c})
		if end := at + rng.ExpFloat64()*cfg.MeanSession; end < sc.Horizon {
			departures = append(departures, Event{Time: end, Kind: Leave, Client: c})
		}
	}
	for i := 0; i < int(math.Round(cfg.InitialActiveFraction*float64(len(pool)))); i++ {
		if c := pickIdle(); c >= 0 {
			join(c, 0)
		}
	}
	lambdaMax := (1 + cfg.Amplitude) / cfg.MeanInterarrival
	for t := rng.ExpFloat64() / lambdaMax; t < sc.Horizon; t += rng.ExpFloat64() / lambdaMax {
		lambda := (1 + cfg.Amplitude*math.Sin(2*math.Pi*t/cfg.Period)) / cfg.MeanInterarrival
		if rng.Float64()*lambdaMax > lambda {
			continue // thinned: this candidate is off-cycle
		}
		sort.Slice(departures, func(i, j int) bool { return departures[i].Time < departures[j].Time })
		for len(departures) > 0 && departures[0].Time <= t {
			events = append(events, departures[0])
			idle = append(idle, departures[0].Client)
			departures = departures[1:]
		}
		if c := pickIdle(); c >= 0 {
			join(c, t)
		}
	}
	events = append(events, departures...)
	sc.Events = append(sc.Events, events...)
	return nil
}

// DriftConfig parameterizes coordinate drift: every Interval ms the
// mobility model steps and the instance is re-materialized from the
// moved coordinates.
type DriftConfig struct {
	// Interval between drift snapshots (ms).
	Interval float64
	// Mobility model applied to client nodes (servers never move).
	Mobility coords.MobilityConfig
}

// AddDrift precomputes the instance snapshot at every drift step.
// Drift claims no clients — it composes with any churn driver — but a
// scenario carries at most one drift plan.
func (sc *Scenario) AddDrift(cfg DriftConfig, seed int64) error {
	if len(sc.Snapshots) > 0 {
		return errors.New("dynamic: scenario already has a drift plan")
	}
	if cfg.Interval <= 0 || cfg.Interval >= sc.Horizon {
		return fmt.Errorf("dynamic: drift interval %v outside (0, %v)", cfg.Interval, sc.Horizon)
	}
	sys, err := coords.NewFromCoords(coords.DefaultConfig(), sc.Pop.Coords, seed)
	if err != nil {
		return err
	}
	mob, err := coords.NewMobility(sys, sc.Pop.Clients, cfg.Mobility, seed)
	if err != nil {
		return err
	}
	for t := cfg.Interval; t < sc.Horizon; t += cfg.Interval {
		if err := mob.Step(); err != nil {
			return err
		}
		cs, err := sys.Coords()
		if err != nil {
			return err
		}
		in, err := core.NewInstanceCoords(cs, sc.Pop.Servers, sc.Pop.Clients)
		if err != nil {
			return err
		}
		sc.Snapshots = append(sc.Snapshots, DriftSnapshot{Time: t, Coords: cs, Instance: in})
	}
	return nil
}

// StormConfig parameterizes a correlated failure storm: the servers
// nearest a random epicenter — the "one availability zone" — fail
// within a short window.
type StormConfig struct {
	// ServerFraction of all servers killed (at least one).
	ServerFraction float64
	// Start of the storm (ms).
	Start float64
	// Stagger spreads the kills over [Start, Start+Stagger].
	Stagger float64
	// Outage is how long each server stays down (ms); 0 = permanent.
	Outage float64
	// Partition additionally records a PartitionWindow isolating the
	// killed set for the storm's duration (live mode only).
	Partition bool
}

// AddFailureStorm schedules correlated kills of the servers nearest a
// seeded-random epicenter.
func (sc *Scenario) AddFailureStorm(cfg StormConfig, seed int64) error {
	ns := sc.Pop.Instance.NumServers()
	if cfg.ServerFraction <= 0 || cfg.ServerFraction > 1 {
		return fmt.Errorf("dynamic: storm server fraction %v outside (0, 1]", cfg.ServerFraction)
	}
	if cfg.Start < 0 || cfg.Start >= sc.Horizon {
		return fmt.Errorf("dynamic: storm start %v outside [0, %v)", cfg.Start, sc.Horizon)
	}
	if cfg.Stagger < 0 {
		return errors.New("dynamic: storm stagger must be non-negative")
	}
	n := int(math.Round(cfg.ServerFraction * float64(ns)))
	if n < 1 {
		n = 1
	}
	if n >= ns {
		n = ns - 1 // leave at least one survivor: a total blackout has no assignment
	}
	rng := rand.New(rand.NewSource(seed))
	epicenter := sc.Pop.Coords[sc.Pop.Servers[rng.Intn(ns)]]
	type cand struct {
		server int
		dist   float64
	}
	cands := make([]cand, ns)
	for k := 0; k < ns; k++ {
		cands[k] = cand{server: k, dist: sc.Pop.Coords[sc.Pop.Servers[k]].LatencyTo(epicenter)}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if c := cmp.Compare(cands[i].dist, cands[j].dist); c != 0 {
			return c < 0
		}
		return cands[i].server < cands[j].server
	})

	var victims []int
	for i := 0; i < n; i++ {
		at := cfg.Start
		if cfg.Stagger > 0 {
			at += rng.Float64() * cfg.Stagger
		}
		restart := 0.0
		if cfg.Outage > 0 {
			restart = at + cfg.Outage
		}
		sc.Kills = append(sc.Kills, ServerKill{Time: at, Server: cands[i].server, RestartAt: restart})
		victims = append(victims, cands[i].server)
	}
	if cfg.Partition {
		end := cfg.Start + cfg.Stagger + cfg.Outage
		if cfg.Outage == 0 || end > sc.Horizon {
			end = sc.Horizon
		}
		sort.Ints(victims)
		sc.Partitions = append(sc.Partitions, PartitionWindow{Start: cfg.Start, End: end, Servers: victims})
	}
	return nil
}

// Finalize sorts the merged tapes and verifies the script is coherent:
// events in order (leaves before joins at ties), no double joins or
// orphan leaves, kills reference real servers. Must be called once,
// after all drivers, before SimulateScenario.
func (sc *Scenario) Finalize() error {
	if sc.finalized {
		return errors.New("dynamic: scenario already finalized")
	}
	sortEvents(sc.Events)
	active := make(map[int]bool)
	for i, e := range sc.Events {
		switch e.Kind {
		case Join:
			if active[e.Client] {
				return fmt.Errorf("dynamic: scenario %s: client %d double-joins at event %d", sc.Name, e.Client, i)
			}
			active[e.Client] = true
		case Leave:
			if !active[e.Client] {
				return fmt.Errorf("dynamic: scenario %s: client %d leaves while inactive at event %d", sc.Name, e.Client, i)
			}
			active[e.Client] = false
		default:
			return fmt.Errorf("dynamic: scenario %s: unknown event kind %d", sc.Name, e.Kind)
		}
	}
	ns := sc.Pop.Instance.NumServers()
	for _, k := range sc.Kills {
		if k.Server < 0 || k.Server >= ns {
			return fmt.Errorf("dynamic: scenario %s: kill of unknown server %d", sc.Name, k.Server)
		}
	}
	sort.SliceStable(sc.Kills, func(i, j int) bool { return sc.Kills[i].Time < sc.Kills[j].Time })
	sc.finalized = true
	return nil
}

// sortEvents time-orders a churn trace in tape order: leaves before
// joins at equal times.
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool { return tapeLess(churnTape(events[i]), churnTape(events[j])) })
}

// ScenarioKinds lists the preset scenario names BuildScenario accepts.
func ScenarioKinds() []string {
	return []string{"flashcrowd", "diurnal", "drift", "storm", "mixed"}
}

// BuildScenario assembles a preset scenario: a ready-made population
// and driver mix sized for CI-scale runs, fully determined by the seed.
func BuildScenario(kind string, seed int64) (*Scenario, error) {
	pop, err := NewPopulation(140, 8, seed)
	if err != nil {
		return nil, err
	}
	sc, err := NewScenario(kind, pop, 2000)
	if err != nil {
		return nil, err
	}
	background := BackgroundChurnConfig{
		MeanInterarrival:      8,
		MeanSession:           400,
		InitialActiveFraction: 0.5,
	}
	switch kind {
	case "flashcrowd":
		err = sc.AddFlashCrowd(FlashCrowdConfig{
			ClientFraction: 0.4, Start: 800, Window: 60, MeanSession: 600,
		}, seed+1)
		if err == nil {
			err = sc.AddBackgroundChurn(background, seed+2)
		}
	case "diurnal":
		err = sc.AddDiurnalChurn(DiurnalConfig{
			MeanInterarrival: 6, Amplitude: 0.8, Period: 1000,
			MeanSession: 300, InitialActiveFraction: 0.3,
		}, seed+1)
	case "drift":
		err = sc.AddDrift(DriftConfig{
			Interval: 100,
			Mobility: coords.MobilityConfig{Velocity: 3, WalkSigma: 0.5, MovingFraction: 0.6},
		}, seed+1)
		if err == nil {
			err = sc.AddBackgroundChurn(background, seed+2)
		}
	case "storm":
		err = sc.AddFailureStorm(StormConfig{
			ServerFraction: 0.25, Start: 700, Stagger: 100, Outage: 600, Partition: true,
		}, seed+1)
		if err == nil {
			err = sc.AddBackgroundChurn(BackgroundChurnConfig{
				MeanInterarrival: 6, MeanSession: 600, InitialActiveFraction: 0.6,
			}, seed+2)
		}
	case "mixed":
		err = sc.AddFlashCrowd(FlashCrowdConfig{
			ClientFraction: 0.3, Start: 600, Window: 80, MeanSession: 700,
		}, seed+1)
		if err == nil {
			err = sc.AddDrift(DriftConfig{
				Interval: 125,
				Mobility: coords.MobilityConfig{Velocity: 2, WalkSigma: 0.5, MovingFraction: 0.5},
			}, seed+2)
		}
		if err == nil {
			err = sc.AddFailureStorm(StormConfig{
				ServerFraction: 0.25, Start: 1200, Stagger: 80, Outage: 400, Partition: true,
			}, seed+3)
		}
		if err == nil {
			err = sc.AddBackgroundChurn(background, seed+4)
		}
	default:
		return nil, fmt.Errorf("dynamic: unknown scenario kind %q (want one of %v)", kind, ScenarioKinds())
	}
	if err != nil {
		return nil, err
	}
	if err := sc.Finalize(); err != nil {
		return nil, err
	}
	return sc, nil
}
