// Package commtag is the analysistest fixture for the commtag analyzer:
// constant tag arguments outside the user range [0, comm.MaxUserTag).
package commtag

import "agcm/internal/comm"

// Fixture-local tag constants, mirroring how real packages declare theirs.
const (
	tagGood    = 41
	tagTooHigh = comm.MaxUserTag // first reserved tag
	tagHighest = comm.MaxUserTag - 1
)

// ConstantTags exercises in-range and out-of-range constants.
func ConstantTags(c *comm.Comm, buf []float64) {
	c.SendCopy(1, tagGood, buf)
	c.SendCopy(1, 70000, buf)      // want `tag 70000 passed to Comm\.SendCopy collides with the reserved collective tag range`
	c.SendCopy(1, tagTooHigh, buf) // want `tag 65472 passed to Comm\.SendCopy collides with the reserved collective tag range`
	c.SendCopy(1, tagHighest, buf) // highest legal user tag
	_ = c.RecvInto(0, -3, buf)     // want `tag -3 passed to Comm\.RecvInto is negative`
	_ = c.RecvInto(0, 1<<16, buf)  // want `tag 65536 passed to Comm\.RecvInto collides`
	_ = c.RecvInto(0, tagGood, buf)
}

// BothSendrecvTags checks that the send and the receive tag are both
// propagated.
func BothSendrecvTags(c *comm.Comm, buf []float64) []float64 {
	buf = c.SendrecvInto(1, tagGood, buf, 0, tagHighest, buf)
	return c.SendrecvInto(1, comm.MaxUserTag, buf, 0, -1, buf) // want `tag 65472 passed to Comm\.SendrecvInto collides` `tag -1 passed to Comm\.SendrecvInto is negative`
}

// DynamicTags cannot be folded by the type checker and are left to the
// run-time checkUserTag guard.
func DynamicTags(c *comm.Comm, buf []float64, round int) {
	tag := tagGood + round
	c.SendCopy(1, tag, buf)
}

// Allowed demonstrates the escape hatch for a tag the checker cannot see is
// rewritten before use (none exist in the real tree; the annotation is the
// documented way out if one ever does).
func Allowed(c *comm.Comm, buf []float64) {
	c.SendCopy(1, 70001, buf) //lint:allow commtag fixture demonstrates the escape hatch
}
