package comm

import "fmt"

// Cart2D arranges a communicator as a Py x Px processor mesh matching the
// AGCM's two-dimensional horizontal domain decomposition: Py processor rows
// stacked in the latitudinal direction and Px processor columns in the
// longitudinal direction.  World rank = row*Px + col.
type Cart2D struct {
	// World is the full communicator the mesh was built from.
	World *Comm
	// Py and Px are the mesh extents in the latitude and longitude
	// directions.
	Py, Px int
	// MyRow and MyCol locate this rank in the mesh.
	MyRow, MyCol int
	// Row contains the Px ranks sharing this rank's latitude band,
	// ordered west to east.  Filtering transposes happen here.
	Row *Comm
	// Col contains the Py ranks sharing this rank's longitude band,
	// ordered south to north.  Filter-row load balancing happens here.
	Col *Comm
}

// Context ids for the derived communicators.  Row comms use contexts
// [1, 1+Py), column comms use [1+maxMesh, 1+maxMesh+Px).
const cartCtxBase = 1
const maxMeshDim = 1024

// NewCart2D builds the mesh topology.  The communicator size must equal
// Py*Px.
func NewCart2D(world *Comm, py, px int) *Cart2D {
	if py < 1 || px < 1 || py > maxMeshDim || px > maxMeshDim {
		panic(fmt.Sprintf("comm: invalid mesh %dx%d", py, px))
	}
	if world.Size() != py*px {
		panic(fmt.Sprintf("comm: mesh %dx%d needs %d ranks, communicator has %d",
			py, px, py*px, world.Size()))
	}
	me := world.Rank()
	myRow, myCol := me/px, me%px
	rowColors := make([]int, world.Size())
	colColors := make([]int, world.Size())
	keys := make([]int, world.Size())
	for r := 0; r < world.Size(); r++ {
		rowColors[r] = r / px
		colColors[r] = r % px
		keys[r] = r
	}
	return &Cart2D{
		World: world,
		Py:    py, Px: px,
		MyRow: myRow, MyCol: myCol,
		Row: world.Split(rowColors, keys, cartCtxBase),
		Col: world.Split(colColors, keys, cartCtxBase+maxMeshDim),
	}
}
