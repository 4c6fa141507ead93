package compose

import (
	"slices"
	"testing"
)

// testSystem builds a bare System with two places and hand-planted local
// states, for white-box key-encoding tests.
func testSystem() *System {
	sys := &System{
		Places:   []int{1, 2},
		placeIdx: map[int]int{1: 0, 2: 1},
		msgIDs:   map[message]int32{},
		intern:   []map[string]int32{{}, {}},
		local: [][]localState{
			{{sum: digest16([]byte("entity1-state0"))}},
			{{sum: digest16([]byte("entity2-state0"))}},
		},
	}
	return sys
}

// gstateWith builds a two-place global state with the given queue on the
// channel 1->2 (slot 0*2+1 = 1).
func gstateWith(queue ...int32) gstate {
	return gstate{0, 0}.withQueue(2, 1, queue)
}

// binaryKey keys a state of sys with fresh scratch memory.
func binaryKey(sys *System, g gstate) string {
	return sys.binaryKeyLocked(g, new(scratch))
}

// TestKeyEncodingCollisions pins the fix for the historical key/message
// encoding ambiguities: the old rendering joined messages with "," and
// printed node messages as "node#occ", so a symbolic tag shaped like "7#0"
// collided with the node-7/occurrence-"0" message, and a tag containing a
// separator ("a,b") collided with two adjacent messages "a","b". The binary
// keys must keep all of these states distinct.
func TestKeyEncodingCollisions(t *testing.T) {
	sys := testSystem()
	tagLikeNode := sys.msgIDLocked(message{Tag: "7#0"})
	nodeMsg := sys.msgIDLocked(message{Node: 7, Occ: "0"})
	tagWithSep := sys.msgIDLocked(message{Tag: "a,b"})
	tagA := sys.msgIDLocked(message{Tag: "a"})
	tagB := sys.msgIDLocked(message{Tag: "b"})

	cases := []struct {
		name string
		a, b gstate
	}{
		{"tag shaped like node#occ", gstateWith(tagLikeNode), gstateWith(nodeMsg)},
		{"tag containing separator", gstateWith(tagWithSep), gstateWith(tagA, tagB)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if ka, kb := binaryKey(sys, c.a), binaryKey(sys, c.b); ka == kb {
				t.Errorf("binary keys collide: %x", ka)
			}
		})
	}

	// Sanity: independently built but equal states share keys.
	if binaryKey(sys, gstateWith(tagA)) != binaryKey(sys, gstateWith(tagA)) {
		t.Error("equal states got distinct binary keys")
	}
}

// TestKeySlotAndLengthFraming checks the remaining dimensions of the
// encoding: which slot holds a queue, and how a queue splits across slots,
// must always be part of the key.
func TestKeySlotAndLengthFraming(t *testing.T) {
	sys := testSystem()
	tagA := sys.msgIDLocked(message{Tag: "a"})

	onSlot1 := gstateWith(tagA)
	onSlot2 := gstateWith().withQueue(2, 2, []int32{tagA}) // channel 2->1
	if binaryKey(sys, onSlot1) == binaryKey(sys, onSlot2) {
		t.Error("binary key ignores channel slot")
	}

	empty := gstateWith()
	if binaryKey(sys, onSlot1) == binaryKey(sys, empty) {
		t.Error("binary key ignores queue contents")
	}

	// Same multiset of messages split differently across two slots.
	split1 := gstateWith(tagA, tagA)
	split2 := gstateWith(tagA).withQueue(2, 2, []int32{tagA})
	if binaryKey(sys, split1) == binaryKey(sys, split2) {
		t.Error("binary key ignores how messages distribute over channels")
	}
}

// TestBinaryKeyContentDerived checks the property multi-worker exploration
// depends on: binary keys are derived from content only, so two System
// instances that interned the same messages in DIFFERENT orders still
// assign equal keys to equal global states.
func TestBinaryKeyContentDerived(t *testing.T) {
	sysA, sysB := testSystem(), testSystem()
	// Interning order differs: ids swap between the two systems.
	a1, a2 := sysA.msgIDLocked(message{Tag: "x"}), sysA.msgIDLocked(message{Node: 3, Occ: "0/1"})
	b2, b1 := sysB.msgIDLocked(message{Node: 3, Occ: "0/1"}), sysB.msgIDLocked(message{Tag: "x"})
	if a1 == b1 && a2 == b2 {
		t.Fatal("test broken: interning orders coincide")
	}
	ka := binaryKey(sysA, gstateWith(a1, a2))
	kb := binaryKey(sysB, gstateWith(b1, b2))
	if ka != kb {
		t.Errorf("binary keys depend on interning order: %x vs %x", ka, kb)
	}
}

// TestPackedStateLayout checks the channel records of packed states: a
// queue write inserts its record in slot order, rewrites it in place, or
// drops it when the queue empties, and never touches the source state.
func TestPackedStateLayout(t *testing.T) {
	const n = 3
	g := gstate{7, 8, 9}
	g1 := g.withQueue(n, 5, []int32{1, 2})
	g2 := g1.withQueue(n, 2, []int32{3})
	g3 := g2.withQueue(n, 5, []int32{4})
	g4 := g3.withQueue(n, 2, nil)
	for _, c := range []struct {
		got, want gstate
	}{
		{g, gstate{7, 8, 9}},
		{g1, gstate{7, 8, 9, 5, 2, 1, 2}},
		{g2, gstate{7, 8, 9, 2, 1, 3, 5, 2, 1, 2}},
		{g3, gstate{7, 8, 9, 2, 1, 3, 5, 1, 4}},
		{g4, gstate{7, 8, 9, 5, 1, 4}},
		{g4.withLocal(1, 0), gstate{7, 0, 9, 5, 1, 4}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("packed state %v, want %v", c.got, c.want)
		}
	}
	if q := g3.queue(n, 2); !slices.Equal(q, []int32{3}) {
		t.Errorf("queue(2) = %v", q)
	}
	if q := g3.queue(n, 4); q != nil {
		t.Errorf("queue(4) = %v, want empty", q)
	}
	// A queue aliasing the source state (a receive's rest) is copied.
	rest, _ := consumeIDs(g1.queue(n, 5), 1, false)
	if g5 := g1.withQueue(n, 5, rest); !slices.Equal(g5, gstate{7, 8, 9, 5, 1, 2}) {
		t.Errorf("aliased queue write gave %v", g5)
	}
}

// TestCanonKeyRankBeyondOneByte pins the symmetry key's column-rank
// encoding past 256 columns: with k = 300 and every column in a distinct
// local state, a message of column 1 and the same message content owned by
// column 257 are different states (no permutation maps one column onto
// the other), so their canonical keys must differ. A one-byte rank wraps
// 257 onto 1 and merges them.
func TestCanonKeyRankBeyondOneByte(t *testing.T) {
	const k = 300
	cols := make([][16]byte, k)
	for c := range cols {
		// Big-endian column numbers: the canonical order is the identity,
		// so a column's rank is its number.
		cols[c][0], cols[c][1] = byte(c>>8), byte(c)
	}
	norm := digest16([]byte("message"))
	sys := &System{
		Places:  []int{1},
		sym:     &symmetry{k: k},
		local:   [][]localState{{{symCols: cols}}},
		msgSum:  [][16]byte{{}, {}},
		msgMeta: []msgMeta{{col: 1, norm: norm}, {col: 257, norm: norm}},
	}
	onCol1 := gstate{0}.withQueue(1, 0, []int32{0})
	onCol257 := gstate{0}.withQueue(1, 0, []int32{1})
	k1, ok1 := sys.canonKeyLocked(onCol1, new(scratch))
	k257, ok257 := sys.canonKeyLocked(onCol257, new(scratch))
	if !ok1 || !ok257 {
		t.Fatal("synthetic states did not canonicalize")
	}
	if k1 == k257 {
		t.Error("column ranks 1 and 257 encode to the same canonical key")
	}
}
