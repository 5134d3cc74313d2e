package dyn

// Equivalence and safety tests for the shared, table-driven ring: every
// preference list must equal the one a straightforward clockwise walk
// produces, rings must be shared per (version, membership, vnodes), and
// the shared-ring table must stay bounded.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// refRing is the reference ring: points hashed with hash/fnv and a
// preference list found by walking the points clockwise from the key's
// hash, collecting distinct members.
type refRing struct {
	members []string // sorted
	points  []refPoint
}

type refPoint struct {
	hash uint32
	node string
}

func refHash(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

func newRefRing(members []string, vnodes int) *refRing {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	r := &refRing{members: sorted}
	for _, m := range sorted {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, refPoint{hash: refHash(fmt.Sprintf("%s#%d", m, i)), node: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

func (r *refRing) preferenceList(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	kh := refHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	owners := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			owners = append(owners, p.node)
		}
	}
	return owners
}

// qmembership is a quick generator for an arbitrary membership (possibly
// empty, occasionally with a repeated member), a vnode count that may be
// zero, a version and a key.
type qmembership struct {
	members []string
	vnodes  int
	version int
	key     string
}

func (qmembership) Generate(r *rand.Rand, _ int) reflect.Value {
	perm := r.Perm(len(ringPool))
	members := make([]string, r.Intn(len(ringPool)+1))
	for i := range members {
		members[i] = ringPool[perm[i]]
	}
	if len(members) > 0 && r.Intn(4) == 0 {
		members = append(members, members[r.Intn(len(members))])
	}
	return reflect.ValueOf(qmembership{
		members: members,
		vnodes:  r.Intn(40),
		version: 1 + r.Intn(5),
		key:     fmt.Sprintf("key-%d", r.Intn(1000)),
	})
}

func ringCacheLen() int {
	ringCache.Lock()
	defer ringCache.Unlock()
	return len(ringCache.rings)
}

// TestRingMatchesReference: the owner table returns exactly the reference
// walk's list for every n from 0 to one past the membership, and every
// returned list is capacity-capped.
func TestRingMatchesReference(t *testing.T) {
	prop := func(q qmembership) bool {
		ring := NewRing(q.version, q.members, q.vnodes)
		ref := newRefRing(q.members, q.vnodes)
		if !reflect.DeepEqual(ring.Members, ref.members) {
			return false
		}
		for n := 0; n <= len(q.members)+1; n++ {
			got, want := ring.PreferenceList(q.key, n), ref.preferenceList(q.key, n)
			if !reflect.DeepEqual(got, want) || cap(got) != len(got) {
				t.Logf("members=%v vnodes=%d key=%q n=%d: got %v (cap %d), want %v",
					q.members, q.vnodes, q.key, n, got, cap(got), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRingAppendDoesNotWriteTable: a caller appending to a preference
// list gets a copy; the shared table is untouched.
func TestRingAppendDoesNotWriteTable(t *testing.T) {
	ring := NewRing(1, []string{"m1", "m2", "m3", "m4"}, 8)
	pref := ring.PreferenceList("k", 2)
	want := append([]string(nil), ring.PreferenceList("k", 3)...)
	_ = append(pref, "intruder")
	if got := ring.PreferenceList("k", 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("append through a preference list changed the table: %v, want %v", got, want)
	}
}

// TestNewRingShared: permuted memberships share one ring; a different
// version or vnode count gets its own.
func TestNewRingShared(t *testing.T) {
	a := NewRing(3, []string{"m2", "m1", "m3"}, 16)
	if b := NewRing(3, []string{"m3", "m2", "m1"}, 16); a != b {
		t.Fatal("permuted membership built a second ring")
	}
	if NewRing(4, []string{"m1", "m2", "m3"}, 16) == a {
		t.Fatal("a different version returned the shared ring")
	}
	if NewRing(3, []string{"m1", "m2", "m3"}, 17) == a {
		t.Fatal("a different vnode count returned the shared ring")
	}
	if NewRing(3, []string{"m1", "m2", "m4"}, 16) == a {
		t.Fatal("a different membership returned the shared ring")
	}
}

// TestRingCacheBounded: building many more distinct rings than the cap
// never grows the shared table past it, and a ring rebuilt after the
// table was cleared routes exactly like the first one.
func TestRingCacheBounded(t *testing.T) {
	members := []string{"m1", "m2", "m3", "m4"}
	first := NewRing(1000, members, 8)
	want := first.PreferenceList("key-7", 3)
	for v := 0; v < 3*ringCacheCap; v++ {
		NewRing(2000+v, members, 8)
		if n := ringCacheLen(); n > ringCacheCap {
			t.Fatalf("shared-ring table holds %d rings, cap %d", n, ringCacheCap)
		}
	}
	if got := NewRing(1000, members, 8).PreferenceList("key-7", 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt ring routes key-7 to %v, want %v", got, want)
	}
}

// TestRingConcurrentUse: concurrent builders and readers of the same and
// of distinct rings (run under -race in CI).
func TestRingConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := NewRing(1+i%3, []string{"dyn1", "dyn2", "dyn3", "dyn4"}, 32)
				if len(r.PreferenceList(keyName(i+g), 3)) != 3 {
					t.Error("short preference list")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
