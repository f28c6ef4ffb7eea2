package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The differential transport test drives the mailboxes of a real Machine with
// a seeded random program and checks every take against a reference model: a
// map from (destination, source, tag) to a FIFO of the messages posted on that
// stream.  The program is built up front by playing it against the model, so
// every rank knows what it posts and, take by take, what it must receive.

// refMsg is one posted message as the reference model keeps it.
type refMsg struct {
	floats []float64
	bytes  int
	arrive float64
	seq    int64
}

// refPost is one post of the program: msg goes to dst on tag.
type refPost struct {
	dst, tag int
	msg      *refMsg
}

// refTake is one take of the program: the next message from src on tag, which
// the model says is want.
type refTake struct {
	src, tag int
	want     *refMsg
}

// refPhase is what every rank does in one phase: all its posts, then all its
// takes.  A take only ever asks for a message posted in this phase or an
// earlier one, and every rank posts before it takes, so no program deadlocks.
type refPhase struct {
	posts [][]refPost // by sending rank
	takes [][]refTake // by receiving rank
}

type refStream struct{ dst, src, tag int }

// diffTags mixes user tags with the reserved collective tags of two comm
// contexts (ctx·65536 + 65535 and below), up to a 1024-wide mesh's last
// column context.
var diffTags = []int{0, 1, 7, 1<<16 - 64 - 1, 1*65536 + 65535, 2049*65536 + 65535, 2049*65536 + 65528}

// diffLength draws a payload length: a zero-length token, a short payload
// carved from a mailbox chunk, or a long one made whole.
func diffLength(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1, 2:
		return 1 + rng.Intn(carveFloats)
	default:
		return 1 + rng.Intn(200)
	}
}

// diffProgram builds phases of random traffic among ranks ranks.  Each rank
// talks to a few partners spread over the whole machine on a few tags each, so
// streams run deep and their lengths grow and shrink.  When drain is false the
// last phase leaves part of every stream undelivered.
func diffProgram(rng *rand.Rand, ranks, phases int, drain bool) []refPhase {
	fifo := make(map[refStream][]*refMsg)
	seq := make([]int64, ranks)
	partners := make([][]refStream, ranks) // by sender: the streams it posts on
	for src := range partners {
		for i := 0; i < 3; i++ {
			dst := rng.Intn(ranks)
			for j := 0; j < 1+rng.Intn(3); j++ {
				partners[src] = append(partners[src], refStream{dst, src, diffTags[rng.Intn(len(diffTags))]})
			}
		}
	}
	prog := make([]refPhase, phases)
	for ph := range prog {
		p := &prog[ph]
		p.posts = make([][]refPost, ranks)
		p.takes = make([][]refTake, ranks)
		for src := 0; src < ranks; src++ {
			for i := rng.Intn(12); i > 0; i-- {
				s := partners[src][rng.Intn(len(partners[src]))]
				seq[src]++
				m := &refMsg{floats: make([]float64, diffLength(rng)), bytes: rng.Intn(4096), arrive: rng.Float64(), seq: seq[src]}
				for j := range m.floats {
					m.floats[j] = math.Float64frombits(rng.Uint64())
				}
				fifo[s] = append(fifo[s], m)
				p.posts[src] = append(p.posts[src], refPost{s.dst, s.tag, m})
			}
		}
		// Takes in a random interleaving of each destination's streams, in
		// the order the program first used them (never the map's order).
		for src := 0; src < ranks; src++ {
			for _, s := range partners[src] {
				q := fifo[s]
				n := rng.Intn(len(q) + 1)
				if ph == phases-1 {
					n = len(q) / 2
					if drain {
						n = len(q)
					}
				}
				for _, m := range q[:n] {
					p.takes[s.dst] = append(p.takes[s.dst], refTake{s.src, s.tag, m})
				}
				fifo[s] = q[n:]
			}
		}
		for _, tk := range p.takes {
			shuffleStreams(rng, tk)
		}
	}
	return prog
}

// shuffleStreams permutes takes while keeping each stream's takes in order.
func shuffleStreams(rng *rand.Rand, takes []refTake) {
	type key struct{ src, tag int }
	var order []key
	byStream := make(map[key][]refTake)
	for _, tk := range takes {
		k := key{tk.src, tk.tag}
		if _, ok := byStream[k]; !ok {
			order = append(order, k)
		}
		byStream[k] = append(byStream[k], tk)
	}
	var slots []key
	for _, k := range order {
		for range byStream[k] {
			slots = append(slots, k)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	for i, k := range slots {
		takes[i], byStream[k] = byStream[k][0], byStream[k][1:]
	}
}

// runProgram plays prog on m: each rank posts from one scratch buffer it
// scribbles over after every post, and takes into one buffer it reuses.
func runProgram(m *Machine, prog []refPhase) error {
	_, err := m.Run(func(p *Proc) error {
		me := p.Rank()
		var scratch, buf []float64
		for ph, phase := range prog {
			for _, ps := range phase.posts[me] {
				scratch = append(scratch[:0], ps.msg.floats...)
				m.boxes[ps.dst].post(me, ps.tag, scratch, ps.msg.bytes, ps.msg.arrive, ps.msg.seq)
				for i := range scratch {
					scratch[i] = math.NaN()
				}
			}
			for i, tk := range phase.takes[me] {
				var got message
				var ok bool
				buf, got, ok = m.boxes[me].take(tk.src, tk.tag, buf)
				if !ok {
					panic(&abortedError{rank: me}) // a victim: Run reports the cause
				}
				if err := sameMsg(tk.want, buf, got); err != nil {
					return fmt.Errorf("rank %d phase %d take %d from (src %d, tag %d): %v", me, ph, i, tk.src, tk.tag, err)
				}
				for j := range buf {
					buf[j] = math.Inf(-1)
				}
			}
		}
		return nil
	})
	return err
}

// sameMsg compares a delivered message with the reference, payload bit for bit.
func sameMsg(want *refMsg, floats []float64, got message) error {
	if got.bytes != want.bytes || got.arrive != want.arrive || got.seq != want.seq {
		return fmt.Errorf("got (bytes %d, arrive %g, seq %d), want (%d, %g, %d)",
			got.bytes, got.arrive, got.seq, want.bytes, want.arrive, want.seq)
	}
	if len(floats) != len(want.floats) {
		return fmt.Errorf("got %d floats, want %d", len(floats), len(want.floats))
	}
	for i, f := range floats {
		if math.Float64bits(f) != math.Float64bits(want.floats[i]) {
			return fmt.Errorf("float %d of %d is %#x, want %#x", i, len(floats), math.Float64bits(f), math.Float64bits(want.floats[i]))
		}
	}
	return nil
}

// TestTransportDifferential plays seeded random programs on a 160-rank
// machine, so sources span three pages of every mailbox's table, against the
// reference model.  The first Run leaves messages undelivered on many streams;
// the second Run on the same Machine must see none of them, and reuses their
// messages, whose buffers are then refilled to other lengths.
func TestTransportDifferential(t *testing.T) {
	const ranks, phases = 160, 6
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		m := New(ranks, newTestModel())
		for run, drain := range []bool{false, true} {
			if err := runProgram(m, diffProgram(rng, ranks, phases, drain)); err != nil {
				t.Fatalf("seed %d run %d: %v", seed, run, err)
			}
		}
	}
}
