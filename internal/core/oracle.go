package core

import "fmt"

// CostOracle prices a job for admission scheduling without running it.  The
// one analytic implementation is internal/roofline's Machine — the roofline
// over a machine.Model of the host or of a paper machine; the interface
// exists so tests can substitute fakes, and lives here so core does not
// depend on roofline.
//
// PredictSeconds must be a pure function of the canonicalized config and the
// step count — equal ConfigKeys must predict equal costs — because the sjf
// scheduler's ordering, and therefore the daemon's observable behaviour,
// follows it.
type CostOracle interface {
	// PredictSeconds estimates the seconds a run of cfg for measuredSteps
	// measured steps will consume (including warmup), or an error for
	// configs it cannot price.
	PredictSeconds(cfg Config, measuredSteps int) (float64, error)
}

// PredictCostWith prices a job with the given oracle.  Degenerate inputs
// (invalid config, zero or negative steps) error before the oracle is
// consulted, so every oracle shares one front door for the edge cases.
func PredictCostWith(oracle CostOracle, cfg Config, measuredSteps int) (float64, error) {
	if _, err := cfg.withDefaults(); err != nil {
		return 0, err
	}
	if measuredSteps < 1 {
		return 0, fmt.Errorf("core: need at least one measured step")
	}
	return oracle.PredictSeconds(cfg, measuredSteps)
}

// Normalized returns the config with defaults and derived fields filled
// (time step, warmup, physics rounds), validating the grid, machine and
// mesh.  It is the exported form of the normalization every Run performs,
// for oracles and analyzers that must count work exactly the way the run
// will perform it.
func (c Config) Normalized() (Config, error) {
	return c.withDefaults()
}
