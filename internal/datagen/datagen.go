// Package datagen generates moving-object workloads in the style of the PDR
// paper's evaluation (Sec. 7): N objects moving over a metropolitan road
// network in an L x L plane, with skewed free-flow speeds and a location
// update stream in which every object reports at least once per maximum
// update interval U.
//
// The paper generated data with the method of Saltenis et al. [16] over the
// Chicago road network; this package reproduces the statistically relevant
// behaviour with the synthetic metro network of package roadnet (see
// DESIGN.md, substitutions).
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"pdr/internal/geom"
	"pdr/internal/motion"
	"pdr/internal/roadnet"
)

// Config parameterizes a workload.
type Config struct {
	// N is the number of moving objects.
	N int
	// Area is the plane (the paper uses 1,000 x 1,000 miles).
	Area geom.Rect
	// U is the maximum update interval in ticks: every object reports a
	// fresh (position, velocity) within U ticks of its previous report.
	U motion.Tick
	// SpeedMin and SpeedMax bound free-flow speed in distance per tick.
	// The paper draws speeds from a skewed distribution over 25..100 mph.
	SpeedMin, SpeedMax float64
	// SpeedSkew > 1 biases toward slow objects (u^skew sampling); 1 gives
	// uniform speeds.
	SpeedSkew float64
	// Uniform, when true, skips the road network entirely: objects move
	// linearly and bounce off the area walls. This is a control workload
	// for tests; the paper's experiments use network movement.
	Uniform bool
	// Warmup is the number of ticks travelers walk before t=0 so the
	// initial snapshot already exhibits hub skew.
	Warmup int
	// Seed drives all randomness, the road network's hubs included.
	Seed int64
}

// DefaultConfig returns the paper-scale defaults for n objects: a 1,000-mile
// square, U=60 ticks, speeds 25..100 mph at one-minute ticks (0.42..1.67
// miles/tick), skew 2.
func DefaultConfig(n int) Config {
	area := geom.NewRect(0, 0, 1000, 1000)
	return Config{
		N:         n,
		Area:      area,
		U:         60,
		SpeedMin:  25.0 / 60.0,
		SpeedMax:  100.0 / 60.0,
		SpeedSkew: 2,
		Warmup:    300,
		Seed:      1,
	}
}

// Generator produces the initial object states and the per-tick update
// stream for a workload.
type Generator struct {
	cfg Config
	net *roadnet.Network
	rng *rand.Rand
	now motion.Tick

	travelers []roadnet.Traveler // network mode
	uniform   []motion.State     // uniform mode ground truth
	reported  []motion.State     // last state reported to the server
	nextDue   []motion.Tick      // tick by which each object must report
}

// New builds a generator. The object states returned by InitialStates are
// positioned after Warmup ticks of network movement.
func New(cfg Config) (*Generator, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("datagen: N must be positive, got %d", cfg.N)
	}
	if cfg.Area.IsEmpty() {
		return nil, fmt.Errorf("datagen: empty area")
	}
	if cfg.U <= 0 {
		return nil, fmt.Errorf("datagen: U must be positive, got %d", cfg.U)
	}
	if cfg.SpeedMin <= 0 || cfg.SpeedMax < cfg.SpeedMin {
		return nil, fmt.Errorf("datagen: bad speed range [%g, %g]", cfg.SpeedMin, cfg.SpeedMax)
	}
	if cfg.SpeedSkew <= 0 {
		cfg.SpeedSkew = 1
	}
	g := &Generator{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		reported: make([]motion.State, cfg.N),
		nextDue:  make([]motion.Tick, cfg.N),
	}
	if !cfg.Uniform {
		net, err := roadnet.New(cfg.Area, cfg.Seed)
		if err != nil {
			return nil, err
		}
		g.net = net
		g.travelers = make([]roadnet.Traveler, cfg.N)
		for i := range g.travelers {
			g.travelers[i] = roadnet.NewTraveler(net, g.rng, g.speed())
		}
		for w := 0; w < cfg.Warmup; w++ {
			for i := range g.travelers {
				g.travelers[i].Step(net, g.rng)
			}
		}
	} else {
		g.uniform = make([]motion.State, cfg.N)
		for i := range g.uniform {
			angle := g.rng.Float64() * 2 * math.Pi
			sp := g.speed()
			g.uniform[i] = motion.State{
				ID: motion.ObjectID(i),
				Pos: geom.Point{
					X: cfg.Area.MinX + g.rng.Float64()*cfg.Area.Width(),
					Y: cfg.Area.MinY + g.rng.Float64()*cfg.Area.Height(),
				},
				Vel: geom.Vec{X: sp * math.Cos(angle), Y: sp * math.Sin(angle)},
				Ref: 0,
			}
		}
	}
	for i := 0; i < cfg.N; i++ {
		g.reported[i] = g.truth(i, 0)
		// Stagger initial report deadlines uniformly over (0, U] so the
		// steady-state update rate is N/U per tick from the start.
		g.nextDue[i] = motion.Tick(1 + g.rng.Intn(int(cfg.U)))
	}
	return g, nil
}

// speed samples a skewed free-flow speed.
func (g *Generator) speed() float64 {
	u := math.Pow(g.rng.Float64(), g.cfg.SpeedSkew)
	return g.cfg.SpeedMin + u*(g.cfg.SpeedMax-g.cfg.SpeedMin)
}

// truth returns the actual state of object i at time t (only valid for
// t == g.now; t is carried for the Ref field).
func (g *Generator) truth(i int, t motion.Tick) motion.State {
	if g.cfg.Uniform {
		s := g.uniform[i]
		s.Ref = t
		return s
	}
	return motion.State{
		ID:  motion.ObjectID(i),
		Pos: g.travelers[i].Pos(g.net),
		Vel: g.travelers[i].Vel(g.net),
		Ref: t,
	}
}

// Now returns the current tick.
func (g *Generator) Now() motion.Tick { return g.now }

// Area returns the workload plane.
func (g *Generator) Area() geom.Rect { return g.cfg.Area }

// N returns the number of objects.
func (g *Generator) N() int { return g.cfg.N }

// InitialStates returns the states of all objects at tick 0 — the initial
// bulk insertions.
func (g *Generator) InitialStates() []motion.State {
	out := make([]motion.State, g.cfg.N)
	copy(out, g.reported)
	return out
}

// Advance moves the world forward one tick and returns the update stream for
// the new tick: a Delete of the stale movement followed by an Insert of the
// fresh one for every object that (a) changed velocity (turned at a network
// node or bounced off a wall), or (b) hit its U-tick report deadline.
func (g *Generator) Advance() []motion.Update {
	g.now++
	var updates []motion.Update
	for i := 0; i < g.cfg.N; i++ {
		turned := g.step(i)
		if turned || g.now >= g.nextDue[i] {
			old := g.reported[i]
			fresh := g.truth(i, g.now)
			updates = append(updates,
				motion.NewDelete(old, g.now),
				motion.NewInsert(fresh),
			)
			g.reported[i] = fresh
			g.nextDue[i] = g.now + g.cfg.U
		}
	}
	return updates
}

// step advances object i by one tick, returning whether its velocity
// changed.
func (g *Generator) step(i int) bool {
	if !g.cfg.Uniform {
		return g.travelers[i].Step(g.net, g.rng)
	}
	s := &g.uniform[i]
	s.Pos = s.Pos.Add(s.Vel)
	turned := false
	if s.Pos.X < g.cfg.Area.MinX || s.Pos.X >= g.cfg.Area.MaxX {
		s.Vel.X = -s.Vel.X
		s.Pos.X = clamp(s.Pos.X, g.cfg.Area.MinX, g.cfg.Area.MaxX-1e-9)
		turned = true
	}
	if s.Pos.Y < g.cfg.Area.MinY || s.Pos.Y >= g.cfg.Area.MaxY {
		s.Vel.Y = -s.Vel.Y
		s.Pos.Y = clamp(s.Pos.Y, g.cfg.Area.MinY, g.cfg.Area.MaxY-1e-9)
		turned = true
	}
	return turned
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
