package sim

import "fmt"

// Phase names a part of the model step that a rank accounts its virtual
// time to: the paper's Figure 1 split into dynamics, filter and physics,
// with the dynamics cut into finite differences and ghost exchange.
//
// The constants are in the sorted order of their names, so every walk over
// phases meets them in name order: reports that sum, subtract or print per
// phase do so in one fixed order.
type Phase uint8

const (
	DynamicsComm Phase = iota // ghost exchange and polar boundaries
	DynamicsFD                // finite differences
	Filter                    // spectral filter
	Misc                      // anything outside the model's own phases
	Physics                   // column physics
	Sync                      // the barrier before the filter
	NumPhases
)

var phaseNames = [NumPhases]string{"dynamics-comm", "dynamics-fd", "filter", "misc", "physics", "sync"}

// String returns the phase's name as reports and trace spans print it.
func (ph Phase) String() string {
	if ph < NumPhases {
		return phaseNames[ph]
	}
	return fmt.Sprintf("phase(%d)", uint8(ph))
}
