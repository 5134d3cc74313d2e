package dyn

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Ring is an immutable consistent-hash ring: each member contributes a
// fixed number of virtual-node points, and a key's preference list is the
// first N distinct members walking clockwise from the key's hash. Rings
// are versioned; membership changes build a new ring with a higher
// version and gossip carries it through the cluster.
//
// A ring is a pure function of (version, membership, vnodes), so NewRing
// hands out one shared instance per distinct triple. Nothing in a Ring is
// written after construction: concurrent searches share rings without
// locking.
type Ring struct {
	Version int
	Members []string // sorted

	hashes []uint32 // ring points, sorted by (hash, member)
	// owners is the owner table: row i (stride entries) is the walk of
	// distinct members clockwise from point i, so every preference list
	// is a prefix of one row.
	owners []string
	stride int // distinct members
}

// ringCacheCap bounds the shared-ring table. Targets use a handful of
// memberships each; property tests and fuzzing generate arbitrarily many,
// so the table is simply cleared when it fills.
const ringCacheCap = 64

type ringKey struct {
	version int
	members string // sorted members, NUL-joined
	vnodes  int
}

var ringCache struct {
	sync.Mutex
	rings map[ringKey]*Ring
}

// NewRing returns the ring for the given members (order-insensitive) with
// vnodes virtual points per member. Hashing is seed-independent — the
// same membership always yields the same ring — so routing geometry is
// identical across runs and seeds, and equal arguments return the same
// shared *Ring.
func NewRing(version int, members []string, vnodes int) *Ring {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	key := ringKey{version: version, members: strings.Join(sorted, "\x00"), vnodes: vnodes}
	ringCache.Lock()
	defer ringCache.Unlock()
	if r, ok := ringCache.rings[key]; ok {
		return r
	}
	if ringCache.rings == nil || len(ringCache.rings) >= ringCacheCap {
		ringCache.rings = make(map[ringKey]*Ring)
	}
	r := buildRing(version, sorted, vnodes)
	ringCache.rings[key] = r
	return r
}

// buildRing places the virtual points of the sorted members and fills the
// owner table.
func buildRing(version int, sorted []string, vnodes int) *Ring {
	type point struct {
		hash   uint32
		member int // index of the distinct member
	}
	var distinct []string
	var points []point
	for i, m := range sorted {
		// A repeated member adds its identical points again; they change
		// no walk of distinct members.
		if i == 0 || m != sorted[i-1] {
			distinct = append(distinct, m)
		}
		for v := 0; v < vnodes; v++ {
			points = append(points, point{hash: hash32(m + "#" + strconv.Itoa(v)), member: len(distinct) - 1})
		}
	}
	// Member indices follow sorted member order, so ordering by index
	// breaks hash ties by member name.
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].member < points[j].member
	})
	r := &Ring{Version: version, Members: sorted, stride: len(distinct)}
	r.hashes = make([]uint32, len(points))
	r.owners = make([]string, 0, len(points)*len(distinct))
	seen := make([]bool, len(distinct))
	for i, p := range points {
		r.hashes[i] = p.hash
		clear(seen)
		row := len(r.owners)
		for j := 0; len(r.owners)-row < len(distinct); j++ {
			m := points[(i+j)%len(points)].member
			if !seen[m] {
				seen[m] = true
				r.owners = append(r.owners, distinct[m])
			}
		}
	}
	return r
}

// hash32 is 32-bit FNV-1a (the hash/fnv values) without the allocation of
// a hash.Hash and a []byte copy.
func hash32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// PreferenceList returns the first n distinct members clockwise from the
// key's hash — the key's owners under this ring. Fewer than n members
// yields the full membership.
//
// The result is a read-only view of the ring's shared owner table. Its
// capacity equals its length, so appending to it copies instead of
// writing into the table.
func (r *Ring) PreferenceList(key string, n int) []string {
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > r.stride {
		n = r.stride
	}
	kh := hash32(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= kh })
	if i == len(r.hashes) {
		i = 0
	}
	at := i * r.stride
	return r.owners[at : at+n : at+n]
}

// Contains reports whether node is a member of the ring.
func (r *Ring) Contains(node string) bool {
	i := sort.SearchStrings(r.Members, node)
	return i < len(r.Members) && r.Members[i] == node
}
