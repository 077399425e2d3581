package assign

import "bytes"

// qtable is the tabular Q function of the RL assigners. A state is the
// MDP's (step, quantized load levels) pair; its Q row is the step's
// initialization vector (mdp.rowInit[step]) plus the actions learning has
// overwritten. Most visited states are updated in one or two actions, so
// the table stores those overrides, not full rows: Q(s,a) is s's override
// for a when one exists, otherwise rowInit[step][a].
//
// States are found through an open-addressing index over the caller's
// 64-bit state hash (the mdp's Zobrist hash). The hash only picks the
// probe sequence: a slot matches when the stored hash, the step and
// every level byte are equal, so two states that collide on the hash
// stay distinct entries. Entries, their level bytes and their overrides
// live in flat arenas, so the table allocates only when an arena or the
// index grows.
type qtable struct {
	rowInit [][]float64
	width   int // level bytes per state: the edge count

	// slots is the index: len is a power of two, kept at most half full;
	// entry 0 marks an empty slot.
	slots []qslot
	// Entry e (numbered from 1) is entries[e-1]; its level bytes are
	// keys[(e-1)*width:e*width].
	entries []qentry
	keys    []uint8
	ovs     []qoverride
}

type qslot struct {
	hash  uint64
	entry int32
}

// qentry is one state: its step and its first override in ovs (-1 when
// it has none).
type qentry struct {
	step int32
	head int32
}

// qoverride is one learned Q value; next chains an entry's overrides.
type qoverride struct {
	value  float64
	action int32
	next   int32
}

// qtableMinSlots is the initial index size.
const qtableMinSlots = 1 << 10

// newQTable returns an empty table over env's states and row
// initialization.
func newQTable(env *mdp) *qtable {
	return &qtable{
		rowInit: env.rowInit,
		width:   len(env.lvl),
		slots:   make([]qslot, qtableMinSlots),
	}
}

// probe walks h's probe sequence and returns the entry of state (step,
// levels), or 0 and the free slot where that state belongs.
func (q *qtable) probe(h uint64, step int, levels []uint8) (int32, uint64) {
	mask := uint64(len(q.slots) - 1)
	i := h & mask
	for ; q.slots[i].entry != 0; i = (i + 1) & mask {
		if s := q.slots[i]; s.hash == h && q.equal(s.entry, step, levels) {
			return s.entry, i
		}
	}
	return 0, i
}

// equal reports whether entry e is state (step, levels).
func (q *qtable) equal(e int32, step int, levels []uint8) bool {
	off := int(e-1) * q.width
	return int(q.entries[e-1].step) == step && bytes.Equal(q.keys[off:off+q.width], levels)
}

// find returns the entry of state (step, levels) with hash h, or 0 when
// the table has none.
func (q *qtable) find(h uint64, step int, levels []uint8) int32 {
	e, _ := q.probe(h, step, levels)
	return e
}

// intern returns the entry of state (step, levels) with hash h, adding
// it (with no overrides) when absent.
func (q *qtable) intern(h uint64, step int, levels []uint8) int32 {
	e, i := q.probe(h, step, levels)
	if e != 0 {
		return e
	}
	q.entries = append(grow(q.entries, 1), qentry{step: int32(step), head: -1})
	q.keys = append(grow(q.keys, q.width), levels...)
	e = int32(len(q.entries))
	q.slots[i] = qslot{hash: h, entry: e}
	if 2*len(q.entries) > len(q.slots) {
		old := q.slots
		q.slots = make([]qslot, 2*len(old))
		mask := uint64(len(q.slots) - 1)
		for _, s := range old {
			if s.entry != 0 {
				k := s.hash & mask
				for q.slots[k].entry != 0 {
					k = (k + 1) & mask
				}
				q.slots[k] = s
			}
		}
	}
	return e
}

// grow returns s with room for n more elements. It doubles the capacity
// when s is full, where append grows large slices by a quarter: a table
// arena then copies less than its final size over a solve.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	t := make([]T, len(s), 2*cap(s)+n)
	copy(t, s)
	return t
}

// stateAt returns env's current state entry, or 0 when the table has
// none; internAt adds it when absent.
func (q *qtable) stateAt(env *mdp) int32  { return q.find(env.key(), env.step, env.lvl) }
func (q *qtable) internAt(env *mdp) int32 { return q.intern(env.key(), env.step, env.lvl) }

// row returns the Q row of entry e at step. Entry 0 stands for a state
// the table has not seen. A state without overrides reads its step's
// initialization in place; otherwise the row is assembled in buf (len =
// edge count). The result is read-only and valid until buf is reused.
func (q *qtable) row(e int32, step int, buf []float64) []float64 {
	if e == 0 || q.entries[e-1].head < 0 {
		return q.rowInit[step]
	}
	copy(buf, q.rowInit[step])
	for k := q.entries[e-1].head; k >= 0; k = q.ovs[k].next {
		buf[q.ovs[k].action] = q.ovs[k].value
	}
	return buf
}

// update moves Q(e, a), currently cur, a step alpha toward target.
func (q *qtable) update(e int32, a int, cur, alpha, target float64) {
	cur += alpha * (target - cur)
	q.set(e, a, cur)
}

// set stores Q(e, a) = v for entry e (never 0).
func (q *qtable) set(e int32, a int, v float64) {
	ent := &q.entries[e-1]
	for k := ent.head; k >= 0; k = q.ovs[k].next {
		if int(q.ovs[k].action) == a {
			q.ovs[k].value = v
			return
		}
	}
	q.ovs = append(grow(q.ovs, 1), qoverride{value: v, action: int32(a), next: ent.head})
	ent.head = int32(len(q.ovs) - 1)
}
