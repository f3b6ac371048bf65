package trace

import (
	"testing"
	"testing/quick"

	"bankaware/internal/stats"
)

// sliceStack is a trivially correct reference implementation used to verify
// the Fenwick-ring lruStack.
type sliceStack struct{ s []Addr }

func (r *sliceStack) PushFront(a Addr) { r.s = append([]Addr{a}, r.s...) }
func (r *sliceStack) RemoveAt(i int) Addr {
	a := r.s[i]
	r.s = append(r.s[:i], r.s[i+1:]...)
	return a
}
func (r *sliceStack) Len() int      { return len(r.s) }
func (r *sliceStack) At(i int) Addr { return r.s[i] }

// TestLRUStackAgainstReference drives the stack and a slice reference
// through the same pushes, removals and move-to-fronts: a growth phase that
// doubles the ring several times, then a shrinking phase. Both cross many
// compactions.
func TestLRUStackAgainstReference(t *testing.T) {
	st := newLRUStack()
	ref := &sliceStack{}
	op := stats.NewRNG(3, 4)
	compactions, growths := 0, 0
	for i := 0; i < 24000; i++ {
		pPush := 0.65
		if i >= 12000 {
			pPush = 0.2
		}
		size, full, takesSlot := len(st.addr), st.top == len(st.addr), true
		switch {
		case ref.Len() == 0 || op.Bool(pPush):
			a := Addr(op.Uint64())
			st.PushFront(a)
			ref.PushFront(a)
		case op.Bool(0.5):
			k := op.IntN(ref.Len())
			got := st.MoveToFront(k)
			want := ref.RemoveAt(k)
			ref.PushFront(want)
			if got != want {
				t.Fatalf("op %d: MoveToFront(%d) = %#x, want %#x", i, k, got, want)
			}
		default:
			takesSlot = false
			k := op.IntN(ref.Len())
			got := st.RemoveAt(k)
			want := ref.RemoveAt(k)
			if got != want {
				t.Fatalf("op %d: RemoveAt(%d) = %#x, want %#x", i, k, got, want)
			}
		}
		if full && takesSlot {
			compactions++
		}
		if len(st.addr) != size {
			growths++
		}
		if st.Len() != ref.Len() {
			t.Fatalf("op %d: Len = %d, want %d", i, st.Len(), ref.Len())
		}
	}
	t.Logf("%d compactions, %d growths, ring %d for %d live", compactions, growths, len(st.addr), st.Len())
	if compactions < 3 || growths < 1 {
		t.Fatalf("crossed %d compactions and %d growths, want >= 3 and >= 1", compactions, growths)
	}
	for k := 0; k < ref.Len(); k++ {
		if st.At(k) != ref.At(k) {
			t.Fatalf("At(%d) = %#x, want %#x", k, st.At(k), ref.At(k))
		}
	}
}

func TestLRUStackPushOrder(t *testing.T) {
	st := newLRUStack()
	for i := 0; i < 100; i++ {
		st.PushFront(Addr(i))
	}
	if st.Len() != 100 {
		t.Fatalf("Len = %d", st.Len())
	}
	for i := 0; i < 100; i++ {
		if got := st.At(i); got != Addr(99-i) {
			t.Fatalf("At(%d) = %d, want %d", i, got, 99-i)
		}
	}
}

func TestLRUStackMoveToFront(t *testing.T) {
	st := newLRUStack()
	for i := 0; i < 10; i++ {
		st.PushFront(Addr(i))
	}
	// Stack is 9..0. Re-touch rank 4 (addr 5): it must move to the front.
	a := st.RemoveAt(4)
	st.PushFront(a)
	if st.At(0) != 5 {
		t.Fatalf("front = %d, want 5", st.At(0))
	}
	if st.Len() != 10 {
		t.Fatalf("Len changed: %d", st.Len())
	}
}

func TestLRUStackRemoveAtPanicsOutOfRange(t *testing.T) {
	st := newLRUStack()
	st.PushFront(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range rank")
		}
	}()
	st.RemoveAt(1)
}

// TestLRUStackChurnAllocationFree re-touches random ranks of a warm stack:
// compactions then run in place, so the steady state allocates nothing, and
// the ring stays within 4x the high-water live count.
func TestLRUStackChurnAllocationFree(t *testing.T) {
	const live = 1000
	st := newLRUStack()
	for i := 0; i < live; i++ {
		st.PushFront(Addr(i))
	}
	rng := stats.NewRNG(2, 3)
	churn := func() {
		for i := 0; i < 10*live; i++ {
			st.MoveToFront(rng.IntN(live))
		}
	}
	if allocs := testing.AllocsPerRun(20, churn); allocs != 0 {
		t.Fatalf("warm churn allocates %.1f times per run, want 0", allocs)
	}
	if st.Len() != live {
		t.Fatalf("Len = %d, want %d", st.Len(), live)
	}
	if c := len(st.addr); c > 4*live {
		t.Fatalf("ring holds %d slots for %d live blocks, want <= %d", c, live, 4*live)
	}
}

// fenwickPrefix returns the tree's count of live slots in [0, i).
func (s *lruStack) fenwickPrefix(i int) int {
	sum := 0
	for ; i > 0; i -= i & -i {
		sum += int(s.tree[i])
	}
	return sum
}

// consistent reports whether every Fenwick prefix sum equals the popcount
// of the occupancy bits below it, the total equals Len, and no live slot
// sits at or above the next push slot.
func (s *lruStack) consistent() bool {
	pop := 0
	for i := 0; i <= len(s.addr); i++ {
		if s.fenwickPrefix(i) != pop {
			return false
		}
		if i < len(s.addr) && s.occ[i>>6]&(1<<(i&63)) != 0 {
			if i >= s.top {
				return false
			}
			pop++
		}
	}
	return pop == s.n
}

// TestLRUStackFenwickMatchesOccupancy is a property over arbitrary
// operation sequences. Each op is a burst of up to 64 pushes, removals or
// move-to-fronts at an op-chosen rank. A prefix of pushes forces one ring
// growth and a suffix of move-to-fronts forces three compactions, so every
// case crosses both. The Fenwick tree must agree with the occupancy bits
// after every step.
func TestLRUStackFenwickMatchesOccupancy(t *testing.T) {
	check := func(ops []uint16) bool {
		st := newLRUStack()
		for i := 0; i < minRing+minRing/2; i++ {
			st.PushFront(Addr(i))
		}
		if len(st.addr) == minRing || !st.consistent() {
			return false
		}
		for _, o := range ops {
			for r := 0; r <= int(o>>10); r++ {
				rank := int(o>>2) % (st.Len() + 1)
				switch {
				case st.Len() == 0 || o%3 == 0:
					st.PushFront(Addr(o))
				case o%3 == 1:
					st.MoveToFront(rank % st.Len())
				default:
					st.RemoveAt(rank % st.Len())
				}
				if !st.consistent() {
					return false
				}
			}
		}
		for c := 0; c < 3; {
			if st.top == len(st.addr) {
				c++
			}
			if st.Len() == 0 {
				st.PushFront(0)
			} else {
				st.MoveToFront(st.Len() - 1)
			}
			if !st.consistent() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
