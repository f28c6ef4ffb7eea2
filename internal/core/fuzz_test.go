package core

import (
	"bytes"
	"testing"

	"agcm/internal/fault"
	"agcm/internal/machine"
	"agcm/internal/physics"
)

// FuzzConfigFromCanonicalJSON: the config decoder takes outside bytes (the
// agcmd request body's "config") and must never panic, and every config it
// accepts that has a canonical form is a fixed point — its CanonicalJSON
// decodes to a config with the same canonical bytes.
func FuzzConfigFromCanonicalJSON(f *testing.F) {
	var seeds []Config
	for fv := FilterConvolutionRing; fv <= FilterFFTRowwise; fv++ {
		seeds = append(seeds, testConfig(2, 2, fv))
	}
	// The fields the scheduler's price and the run itself read.
	for _, edit := range []func(*Config){
		func(c *Config) { c.MeshPy, c.MeshPx = 1, 1 },
		func(c *Config) { c.MeshPy, c.MeshPx = 8, 30 },
		func(c *Config) { c.Spec.Nlayers = 15 },
		func(c *Config) { c.Machine = machine.CrayT3D() },
		func(c *Config) { c.Machine = machine.IBMSP2() },
		func(c *Config) { c.Machine = machine.Host() },
		func(c *Config) { c.PhysicsScheme = physics.Shuffle },
		func(c *Config) { c.PhysicsScheme = physics.Greedy },
		func(c *Config) { c.PhysicsScheme, c.PhysicsRounds = physics.Pairwise, 3 },
		func(c *Config) { c.Dt = 120 },
		func(c *Config) { c.InitWind = 25.5 },
		func(c *Config) { c.VerticalDiffusion = 0.1 },
		func(c *Config) { c.WarmupSteps = -1 },
		func(c *Config) { c.WarmupSteps = 4 },
		func(c *Config) { c.DegradeRank, c.DegradeFactor = 1, 2.5 },
		func(c *Config) { c.EventLog, c.CaptureState, c.CheckpointEvery = true, true, 2 },
		func(c *Config) { c.Topology, c.Placement = "torus", "snake" },
		func(c *Config) { c.Topology, c.Placement = "auto", "perm:3,2,1,0" },
	} {
		c := testConfig(2, 2, FilterFFTBalanced)
		edit(&c)
		seeds = append(seeds, c)
	}
	for _, clause := range []string{
		"seed=7",
		"slow:rank=1,at=0.5,factor=3",
		"crash:rank=3,at=9.2",
		"jitter:max=2e-4",
		"drop:prob=0.01,retries=4,timeout=5e-3",
	} {
		spec, err := fault.Parse(clause)
		if err != nil {
			f.Fatal(err)
		}
		c := testConfig(2, 2, FilterFFT)
		c.Fault = spec
		seeds = append(seeds, c)
	}
	var raw []byte
	for _, c := range seeds {
		var err error
		if raw, err = c.CanonicalJSON(); err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add(raw[:len(raw)/2])                                         // truncated
	f.Add(append(bytes.TrimSuffix(raw, []byte("}")), `,"x":1}`...)) // unknown field
	f.Add(append(raw, " {}"...))                                    // trailing data

	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := ConfigFromCanonicalJSON(in)
		if err != nil {
			return
		}
		canon, err := c.CanonicalJSON()
		if err != nil {
			return // accepted on the wire, but no valid run: rejected downstream
		}
		back, err := ConfigFromCanonicalJSON(canon)
		if err != nil {
			t.Fatalf("canonical form %s of %q rejected: %v", canon, in, err)
		}
		again, err := back.CanonicalJSON()
		if err != nil {
			t.Fatalf("canonical form %s decodes to a config with no canonical form: %v", canon, err)
		}
		if !bytes.Equal(again, canon) {
			t.Fatalf("canonical form is not a fixed point:\n first %s\nsecond %s", canon, again)
		}
	})
}
