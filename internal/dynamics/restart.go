package dynamics

import (
	"fmt"

	"agcm/internal/comm"
	"agcm/internal/grid"
	"agcm/internal/history"
)

// stateVariables lists the fields a restart must capture, in a fixed order:
// the prognostic fields, their leapfrog previous levels, and the tracers.
func (s *State) stateVariables() []struct {
	name string
	f    *grid.Field
} {
	return []struct {
		name string
		f    *grid.Field
	}{
		{"u", s.U}, {"v", s.V}, {"h", s.H}, {"T", s.T}, {"q", s.Q},
		{"u_prev", s.PrevU}, {"v_prev", s.PrevV}, {"h_prev", s.PrevH},
	}
}

// SaveState gathers the complete model state (including the leapfrog
// previous time level) into a history file on world rank 0; other ranks
// return nil.  Collective.
func SaveState(world *comm.Comm, cart *comm.Cart2D, s *State) *history.File {
	spec := s.U.Local().Decomp.Spec
	file := &history.File{Spec: spec, Step: s.Steps}
	for _, v := range s.stateVariables() {
		g := grid.Gather(world, cart, v.f)
		if world.Rank() == 0 {
			if err := file.AddVariable(v.name, g); err != nil {
				panic("dynamics: SaveState: " + err.Error())
			}
		}
	}
	if world.Rank() != 0 {
		return nil
	}
	return file
}

// LoadState scatters a restart file (present on world rank 0, nil
// elsewhere) into the state, restoring the step counter on every rank.
// Collective.  It returns an error if the file's grid does not match.
func LoadState(world *comm.Comm, cart *comm.Cart2D, file *history.File, s *State) error {
	spec := s.U.Local().Decomp.Spec
	// Rank 0 validates; the verdict is broadcast so every rank takes the
	// same path (otherwise a bad file would leave ranks deadlocked in
	// mismatched collectives).
	var step float64
	ok := 1.0
	var checkErr error
	if world.Rank() == 0 {
		switch {
		case file.Spec != spec:
			checkErr = fmt.Errorf("dynamics: restart grid %+v does not match model grid %+v",
				file.Spec, spec)
		case len(file.Names) != len(s.stateVariables()):
			checkErr = fmt.Errorf("dynamics: restart has %d variables, want %d",
				len(file.Names), len(s.stateVariables()))
		default:
			// Every variable must be present *before* any scatter begins:
			// a mid-loop failure on rank 0 alone would leave the other
			// ranks deadlocked inside grid.Scatter.
			for _, v := range s.stateVariables() {
				if _, err := file.Variable(v.name); err != nil {
					checkErr = fmt.Errorf("dynamics: restart file truncated or corrupt: %w", err)
					break
				}
			}
		}
		if checkErr != nil {
			ok = 0
		}
		step = float64(file.Step)
	}
	if world.BcastInto(0, []float64{ok})[0] == 0 {
		if checkErr != nil {
			return checkErr
		}
		return fmt.Errorf("dynamics: restart rejected by rank 0")
	}
	for _, v := range s.stateVariables() {
		var global []float64
		if world.Rank() == 0 {
			g, err := file.Variable(v.name)
			if err != nil {
				return err
			}
			global = g
		}
		grid.Scatter(world, cart, global, v.f)
	}
	s.Steps = int(world.BcastInto(0, []float64{step})[0])
	return nil
}
