package trace

import "math/bits"

// lruStack is an indexable LRU stack of block addresses: rank 0 is the most
// recently used block. It supports the operations the stack-distance
// generator needs — push a new block on top, remove or re-touch the block
// at a given rank, and query the size — each in O(log n) amortised.
//
// Blocks live in a ring of slots filled bottom-up: every push (including
// the re-push of a move-to-front) takes the next unused slot, so slot order
// is recency order and the block at rank r is the (n-r)-th live slot. A
// Fenwick tree over an occupancy bitset counts live slots per prefix, which
// turns a rank into a slot by one binary descent. Removing a block clears
// its slot and leaves a hole. When the top slot is reached, the live slots
// are compacted in place to the bottom and the tree is rebuilt linearly;
// the ring doubles only if more than ¾ of it is still live, so each
// compaction is paid for by at least a quarter-ring of pushes and the ring
// stays within 8/3 of the high-water live count. A plain slice with
// move-to-front would cost O(depth) per access, which is prohibitive for
// the deep reuse distances (tens of thousands of blocks) that workloads
// like bzip2 exhibit.
type lruStack struct {
	addr []Addr   // block per slot; meaningful where occ is set
	occ  []uint64 // occupancy bitset over slots
	tree []int32  // Fenwick tree over occ, 1-indexed: tree[i] covers slots (i-lowbit(i), i]
	top  int      // next slot a push takes
	n    int      // live blocks
}

// minRing is the ring's initial slot count. It must be a power of two (the
// rank descent starts at half the ring) and a multiple of 64 (the bitset
// word size).
const minRing = 64

func newLRUStack() *lruStack {
	s := &lruStack{}
	s.resize(minRing)
	return s
}

// resize allocates a ring of size slots (a power of two, multiple of 64).
// The caller refills it.
func (s *lruStack) resize(size int) {
	s.addr = make([]Addr, size)
	s.occ = make([]uint64, size/64)
	s.tree = make([]int32, size+1)
}

// Len returns the number of blocks on the stack.
func (s *lruStack) Len() int { return s.n }

// PushFront makes addr the most recently used block.
func (s *lruStack) PushFront(addr Addr) {
	if s.top == len(s.addr) {
		s.compact()
	}
	i := s.top
	s.top++
	s.n++
	s.addr[i] = addr
	s.occ[i>>6] |= 1 << (i & 63)
	for j := i + 1; j < len(s.tree); j += j & -j {
		s.tree[j]++
	}
}

// RemoveAt removes and returns the block at rank (0 = MRU). It panics if
// rank is out of range; callers clamp against Len.
func (s *lruStack) RemoveAt(rank int) Addr {
	if rank < 0 || rank >= s.n {
		panic("trace: lruStack rank out of range")
	}
	i := s.seek(s.n-rank, -1)
	s.n--
	s.occ[i>>6] &^= 1 << (i & 63)
	return s.addr[i]
}

// MoveToFront re-touches the block at rank, making it the most recently
// used, and returns it.
func (s *lruStack) MoveToFront(rank int) Addr {
	addr := s.RemoveAt(rank)
	s.PushFront(addr)
	return addr
}

// At returns the block at rank without removing it (used by tests).
func (s *lruStack) At(rank int) Addr {
	if rank < 0 || rank >= s.n {
		panic("trace: lruStack rank out of range")
	}
	return s.addr[s.seek(s.n-rank, 0)]
}

// seek returns the slot of the k-th live block counting from the bottom
// (1-based) by Fenwick binary descent, adding d to the count of every tree
// node that covers that slot. The descent visits one node per level; the
// ones it does not step past are exactly the slot's covering nodes below
// the root, so a removal (d = -1) costs no second pass up the tree.
func (s *lruStack) seek(k int, d int32) int {
	pos := 0
	for step := len(s.addr) >> 1; step > 0; step >>= 1 {
		if c := int(s.tree[pos+step]); c < k {
			pos += step
			k -= c
		} else {
			s.tree[pos+step] += d
		}
	}
	s.tree[len(s.addr)] += d
	return pos
}

// compact moves the live slots, in order, to the bottom of the ring —
// doubling it first if they would fill more than ¾ of it — and rebuilds the
// occupancy bits and the Fenwick tree for the packed layout.
func (s *lruStack) compact() {
	dst := 0
	for w, word := range s.occ {
		for word != 0 {
			s.addr[dst] = s.addr[w<<6|bits.TrailingZeros64(word)]
			dst++
			word &= word - 1
		}
	}
	if size := len(s.addr); s.n > size/4*3 {
		old := s.addr[:s.n]
		s.resize(2 * size)
		copy(s.addr, old)
	}
	s.top = s.n
	clear(s.occ)
	for i := 0; i < s.n>>6; i++ {
		s.occ[i] = ^uint64(0)
	}
	if r := s.n & 63; r != 0 {
		s.occ[s.n>>6] = 1<<r - 1
	}
	// Linear Fenwick build: seed every node with its own slot's count,
	// then push each node's total into its parent.
	t := s.tree
	for i := 1; i < len(t); i++ {
		if i <= s.n {
			t[i] = 1
		} else {
			t[i] = 0
		}
	}
	for i := 1; i < len(t); i++ {
		if p := i + i&-i; p < len(t) {
			t[p] += t[i]
		}
	}
}
