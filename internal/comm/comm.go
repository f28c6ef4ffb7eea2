// Package comm provides an MPI-flavoured message-passing layer on top of the
// sim virtual machine: communicators with sub-groups, point-to-point
// messaging, and the collective operations the parallel AGCM needs (barrier,
// broadcast, reduce, allreduce, gather, scatter, all-to-all).
//
// The paper's filtering variants are distinguished by their communication
// patterns — convolution over rings or binary trees versus a data transpose
// (all-to-all) — so all of those patterns are first-class here and their
// costs emerge from the underlying sim cost model.
//
// Every operation has value semantics: a send copies its buffer (into a
// pooled payload, so the steady state allocates nothing) before it returns,
// and a receive lands in a buffer the caller owns.  No two ranks ever share
// a backing array, so who may write a buffer after a call is never a
// question for the caller.
package comm

import (
	"fmt"

	"agcm/internal/sim"
)

// bytesPerFloat is the wire size of one float64 element.
const bytesPerFloat = 8

// tagSpace is the number of user tags reserved per communicator context;
// collectives use tags near the top of the space.
const tagSpace = 1 << 16

// Reserved collective tags within a context's tag space.  User tags must
// stay below maxUserTag (checkUserTag enforces this with a panic) so user
// traffic can never collide with collective traffic.
const (
	tagBarrier = tagSpace - 1 - iota
	tagBcast
	tagReduce
	tagGather
	tagScatter
	tagAlltoall
	tagShift
	// tagGatherData carries GathervInto/ScattervInto payloads.  It used to
	// live at maxUserTag-1 *inside* the user range, where a user message
	// with the same tag silently interleaved with collective payloads.
	tagGatherData
	maxUserTag = tagSpace - 64
)

// MaxUserTag is the exclusive upper bound of the user tag range: every tag
// passed to SendCopy/RecvInto/SendrecvInto must lie in [0, MaxUserTag).
// Tags at or above it are reserved for collective traffic.  checkUserTag
// enforces the bound at run time and the commtag analyzer
// (internal/analysis) enforces it for constant tags at lint time.
const MaxUserTag = maxUserTag

// Compile-time guard: the lowest reserved collective tag must stay strictly
// above the user range, or checkUserTag's bound would no longer protect the
// collectives.  Adding too many reserved tags makes this constant negative,
// which fails to compile.
const _ = uint64(tagGatherData - maxUserTag - 1)

// Comm is a communicator: an ordered group of world ranks with a private tag
// context, analogous to an MPI communicator.
type Comm struct {
	p      *sim.Proc
	world  []int               // members' world ranks, in comm rank order
	me     int                 // this process's rank within the comm
	ctx    int                 // context id isolating this comm's traffic
	reduce []float64           // ReduceInto's tree-receive staging, reused call to call
	boards [nBoards]*sim.Board // see replay
	steps  [nBoards][]sim.Step
}

// The complete collectives: no member can finish before every member has
// arrived, so each call runs on the communicator's board for it (sim.Board),
// which compiles the members' programs once.  The rest use the mailboxes.
const (
	boardRing = iota // AllgathervInto
	boardAlltoall
	boardBarrier
	nBoards
)

// boardKey names a board: a communicator's context, first world rank and size
// identify its traffic as (source, tag) matching would.
type boardKey struct{ ctx, first, size, kind int }

// replay runs this member's program for kind on the communicator's board.  The
// Comm caches both: boxing the key into the machine's store allocates.
func (c *Comm) replay(kind int, send, recv [][]float64) {
	if c.boards[kind] == nil {
		c.boards[kind] = sim.BoardFor(c.p, boardKey{c.ctx, c.world[0], len(c.world), kind}, c.world)
		c.steps[kind] = c.program(kind)
	}
	c.boards[kind].Run(c.me, c.steps[kind], send, recv)
}

// program is this member's steps in the collective kind.
func (c *Comm) program(kind int) []sim.Step {
	n, me := len(c.world), c.me
	var steps []sim.Step
	step := func(k sim.StepKind, peer, buf, tag int) {
		steps = append(steps, sim.Step{Kind: k, Peer: int32(peer), Buf: int32(buf), Tag: int32(c.tag(tag))})
	}
	switch kind {
	case boardRing: // at step s: the chunk got at s-1 (its own first) to me+1, chunk me-s from me-1
		for s := 1; s < n; s++ {
			step(sim.StepSend, (me+1)%n, (me-s+1+n)%n, tagShift)
			step(sim.StepRecv, (me-1+n)%n, (me-s+n)%n, tagShift)
		}
	case boardAlltoall: // parts[me+k] to me+k, then out[me-k] from me-k
		for k := 1; k < n; k++ {
			step(sim.StepSend, (me+k)%n, (me+k)%n, tagAlltoall)
		}
		for k := 1; k < n; k++ {
			step(sim.StepRecv, (me-k+n)%n, (me-k+n)%n, tagAlltoall)
		}
	case boardBarrier: // in the round at distance d: a token to me+d, one from me-d
		for d := 1; d < n; d *= 2 {
			step(sim.StepSend, (me+d)%n, -1, tagBarrier)
			step(sim.StepRecv, (me-d+n)%n, -1, tagBarrier)
		}
	}
	return steps
}

// World returns the communicator containing every rank of the machine.
func World(p *sim.Proc) *Comm {
	members := make([]int, p.Ranks())
	for i := range members {
		members[i] = i
	}
	return &Comm{p: p, world: members, me: p.Rank(), ctx: 0}
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.me }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.world) }

// Proc returns the underlying simulated processor.
func (c *Comm) Proc() *sim.Proc { return c.p }

// WorldRank translates a comm rank to the machine's world rank.
func (c *Comm) WorldRank(rank int) int {
	if rank < 0 || rank >= len(c.world) {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, len(c.world)))
	}
	return c.world[rank]
}

func (c *Comm) tag(t int) int {
	if t < 0 || t >= tagSpace {
		panic(fmt.Sprintf("comm: tag %d out of range [0,%d)", t, tagSpace))
	}
	return c.ctx*tagSpace + t
}

// Split partitions the communicator like MPI_Comm_split: ranks passing the
// same color form a new communicator, ordered by (key, old rank).  All ranks
// must call Split with deterministic, globally consistent knowledge of every
// member's color and key, supplied via the colors and keys slices indexed by
// comm rank.  (The simulated code computes these locally from the mesh
// geometry, so no communication is needed.)  newCtx must be the same on all
// ranks and unique among live communicators derived from the same parent.
func (c *Comm) Split(colors, keys []int, newCtx int) *Comm {
	if len(colors) != len(c.world) || len(keys) != len(c.world) {
		panic("comm: Split needs one color and key per rank")
	}
	myColor := colors[c.me]
	// Collect members with my color, sorted by (key, rank) via stable
	// selection — group sizes are small so O(n^2) is fine and allocation
	// free of sort.Slice's comparator indirection.  Counting first sizes
	// both lists exactly.
	n := 0
	for _, col := range colors {
		if col == myColor {
			n++
		}
	}
	members := make([]int, 0, n)
	memberKeys := make([]int, 0, n)
	for r, col := range colors {
		if col == myColor {
			members = append(members, c.world[r])
			memberKeys = append(memberKeys, keys[r])
		}
	}
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && memberKeys[j] < memberKeys[j-1]; j-- {
			memberKeys[j], memberKeys[j-1] = memberKeys[j-1], memberKeys[j]
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	me := -1
	for i, w := range members {
		if w == c.p.Rank() {
			me = i
			break
		}
	}
	if me < 0 {
		panic("comm: Split lost the calling rank")
	}
	// Distinct colors must map to distinct contexts; fold the color in.
	return &Comm{p: c.p, world: members, me: me, ctx: newCtx + myColor + 1}
}

// SendCopy transmits a private copy of data to comm rank dst: the caller may
// reuse data immediately.  The copy is drawn from the receiver's payload
// pool, so a steady-state SendCopy/RecvInto exchange allocates nothing.
func (c *Comm) SendCopy(dst, tag int, data []float64) {
	c.checkUserTag(tag)
	c.p.SendFloatsCopy(c.WorldRank(dst), c.tag(tag), data, len(data)*bytesPerFloat)
}

// RecvInto receives a []float64 from comm rank src into buf (grown from
// buf[:0] as needed) and returns the filled slice.  The returned slice
// aliases buf's backing array, which the caller owns again once the call
// returns; pairing SendCopy with RecvInto keeps the exchange allocation-free
// at steady state.
func (c *Comm) RecvInto(src, tag int, buf []float64) []float64 {
	c.checkUserTag(tag)
	return c.p.RecvFloatsInto(c.WorldRank(src), c.tag(tag), buf)
}

func (c *Comm) checkUserTag(tag int) {
	if tag < 0 || tag >= maxUserTag {
		panic(fmt.Sprintf(
			"comm: user tag %d outside [0,%d): tags %d..%d are reserved for collective traffic (barrier/bcast/reduce/gather/alltoall)",
			tag, maxUserTag, maxUserTag, tagSpace-1))
	}
}

// SendrecvInto exchanges data with a partner rank in one logical step: it
// posts the send before blocking on the receive, so symmetric pairwise
// exchanges cannot deadlock.  The send is a pooled copy (data is reusable
// immediately) and the reply lands in buf via RecvInto; with a persistent buf
// the steady-state exchange allocates nothing.
func (c *Comm) SendrecvInto(dst, sendTag int, data []float64, src, recvTag int, buf []float64) []float64 {
	c.SendCopy(dst, sendTag, data)
	return c.RecvInto(src, recvTag, buf)
}

// Barrier blocks until every rank in the communicator has entered it, using
// a dissemination pattern with ceil(log2 P) rounds.
func (c *Comm) Barrier() {
	if len(c.world) > 1 {
		c.replay(boardBarrier, nil, nil)
	}
}

// BcastInto distributes root's buffer to all ranks along a binomial tree.
// Every hop copies: the root passes its data in buf, non-roots receive into
// buf (grown from buf[:0] as needed), and all ranks may reuse the returned
// slice — which they own — immediately.  With persistent buffers the steady
// state allocates nothing.
func (c *Comm) BcastInto(root int, buf []float64) []float64 {
	n := len(c.world)
	if n == 1 {
		return buf
	}
	vrank := (c.me - root + n) % n
	if vrank != 0 {
		src := vrank & (vrank - 1) // the parent: vrank less its lowest set bit
		buf = c.p.RecvFloatsInto(c.WorldRank((src+root)%n), c.tag(tagBcast), buf)
	}
	for dist := nextPow2(n); dist >= 1; dist /= 2 {
		if vrank%(2*dist) == 0 && vrank+dist < n {
			c.p.SendFloatsCopy(c.WorldRank((vrank+dist+root)%n), c.tag(tagBcast), buf, len(buf)*bytesPerFloat)
		}
	}
	return buf
}

// nextPow2 returns half the smallest power of two >= n (n = 5 gives 4): the
// highest distance of the broadcast tree over n ranks.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p / 2
}

// Op is a binary reduction operator over equal-length vectors.
type Op func(dst, src []float64)

// SumOp adds src into dst elementwise.
func SumOp(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// MaxOp keeps the elementwise maximum in dst.
func MaxOp(dst, src []float64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// ReduceInto combines every rank's data with op along a binomial tree rooted
// at root, accumulating into the caller-owned buffer out (grown from out[:0]
// as needed).  The root returns the combined vector, aliasing out's backing
// array; other ranks use out as scratch and return nil.  Reduction arithmetic
// is charged to the virtual clock (one flop per element per combine).  The
// tree stages stage receives in per-Comm scratch and send pooled copies, so
// with a persistent out the steady state allocates nothing.
func (c *Comm) ReduceInto(root int, data, out []float64, op Op) []float64 {
	n := len(c.world)
	acc := append(out[:0], data...)
	vrank := (c.me - root + n) % n
	for dist := 1; dist < n; dist *= 2 {
		if vrank&dist != 0 {
			// This node's subtree is combined; pass it up and exit.
			dst := (vrank - dist + root + n) % n
			c.p.SendFloatsCopy(c.WorldRank(dst), c.tag(tagReduce), acc, len(acc)*bytesPerFloat)
			return nil
		}
		if vrank+dist < n {
			src := (vrank + dist + root) % n
			c.reduce = c.p.RecvFloatsInto(c.WorldRank(src), c.tag(tagReduce), c.reduce)
			op(acc, c.reduce)
			c.p.Compute(float64(len(acc)))
		}
	}
	return acc
}

// AllreduceInto combines every rank's data with op (reduce to rank 0, then
// broadcast): the combined vector lands in the caller-owned out (grown from
// out[:0] as needed) on every rank.  With a persistent out the steady state
// allocates nothing.
func (c *Comm) AllreduceInto(data, out []float64, op Op) []float64 {
	res := c.ReduceInto(0, data, out, op)
	if c.me == 0 {
		out = res
	}
	return c.BcastInto(0, out)
}

// GathervInto collects variable-length contributions onto root: out[r]
// (grown from out[r][:0]) receives rank r's contribution and out[root] a copy
// of data; non-roots send a pooled copy of data — reusable immediately —
// ignore out and return nil.  With persistent buffers the steady state
// allocates nothing.
func (c *Comm) GathervInto(root int, data []float64, out [][]float64) [][]float64 {
	if c.me != root {
		c.p.SendFloatsCopy(c.WorldRank(root), c.tag(tagGatherData), data, len(data)*bytesPerFloat)
		return nil
	}
	if len(out) != len(c.world) {
		panic(fmt.Sprintf("comm: GathervInto needs %d buffers, got %d", len(c.world), len(out)))
	}
	for r := range c.world {
		if r == root {
			out[r] = append(out[r][:0], data...)
			continue
		}
		out[r] = c.p.RecvFloatsInto(c.WorldRank(r), c.tag(tagGatherData), out[r])
	}
	return out
}

// ScattervInto distributes parts[i] from root to comm rank i (only root's
// parts is read): the root may reuse every parts[i] immediately, and each
// rank's share lands in the caller-owned buf (grown from buf[:0] as needed).
// With persistent buffers the steady state allocates nothing.
func (c *Comm) ScattervInto(root int, parts [][]float64, buf []float64) []float64 {
	if c.me == root {
		if len(parts) != len(c.world) {
			panic(fmt.Sprintf("comm: ScattervInto needs %d parts, got %d", len(c.world), len(parts)))
		}
		for r := range c.world {
			if r == root {
				continue
			}
			c.p.SendFloatsCopy(c.WorldRank(r), c.tag(tagGatherData), parts[r], len(parts[r])*bytesPerFloat)
		}
		return append(buf[:0], parts[root]...)
	}
	return c.p.RecvFloatsInto(c.WorldRank(root), c.tag(tagGatherData), buf)
}

// AlltoallvInto sends parts[i] to comm rank i — the data-transpose primitive
// of the FFT filtering module.  out[src] (grown from out[src][:0]) receives
// rank src's part, the local part is copied into out[me], and the caller may
// reuse every parts[i] immediately; out may be parts itself.  With persistent
// buffers the steady state allocates nothing.
func (c *Comm) AlltoallvInto(parts, out [][]float64) [][]float64 {
	n := len(c.world)
	if len(parts) != n {
		panic(fmt.Sprintf("comm: AlltoallvInto needs %d parts, got %d", n, len(parts)))
	}
	if len(out) != n {
		panic(fmt.Sprintf("comm: AlltoallvInto needs %d out buffers, got %d", n, len(out)))
	}
	out[c.me] = append(out[c.me][:0], parts[c.me]...) // parts[me] is never sent, out[me] never received into
	if n > 1 {
		c.replay(boardAlltoall, parts, out)
	}
	return out
}

// AllgathervInto gathers every rank's contribution on every rank using a
// ring pipeline of P-1 steps, matching the original AGCM's ring filtering
// data motion: rank r's contribution lands in out[r] (grown from
// out[r][:0]), with out[me] receiving a copy of data, and the caller may
// reuse data immediately.  With persistent buffers the steady state
// allocates nothing.
func (c *Comm) AllgathervInto(data []float64, out [][]float64) [][]float64 {
	n := len(c.world)
	if len(out) != n {
		panic(fmt.Sprintf("comm: AllgathervInto needs %d out buffers, got %d", n, len(out)))
	}
	out[c.me] = append(out[c.me][:0], data...)
	if n > 1 {
		c.replay(boardRing, out, out)
	}
	return out
}

// AllgathervTree gathers every rank's contribution on every rank via a
// gather to rank 0 followed by two binomial-tree broadcasts, the lengths and
// then the values — the paper's "binary tree" alternative to the ring for
// the convolution filter's data motion: 3(P-1) messages moving
// O(N*P + N*logP) data.  The result is freshly allocated and
// data is reusable immediately.
func (c *Comm) AllgathervTree(data []float64) [][]float64 {
	n := len(c.world)
	parts := c.GathervInto(0, data, make([][]float64, n))
	var lengths, flat []float64
	if c.me == 0 {
		lengths = make([]float64, n)
		for i, p := range parts {
			lengths[i] = float64(len(p))
			flat = append(flat, p...)
		}
	}
	lengths = c.BcastInto(0, lengths)
	flat = c.BcastInto(0, flat)
	out := make([][]float64, n)
	off := 0
	for i := range out {
		k := int(lengths[i])
		out[i] = flat[off : off+k]
		off += k
	}
	return out
}
