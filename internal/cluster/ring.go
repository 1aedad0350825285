package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring with virtual nodes. Each member is
// hashed onto the ring VirtualNodes times; a sensor id hashes to a
// point and its preference list is the sequence of distinct members
// encountered walking clockwise from that point. The first entry is
// the sensor's owner, the next R are its replicas.
//
// Virtual nodes smooth the load split: with a handful of members and
// one hash each, a single unlucky cut can own most of the key space.
//
// A Ring is immutable after construction and safe for concurrent use.
type Ring struct {
	hashes []uint64 // sorted vnode positions
	owners []string // owners[i] is the member at hashes[i]
	nodes  []string // distinct member ids, sorted
}

// NewRing places each member id on the ring vnodes times. Membership
// is static for the life of the ring.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{
		hashes: make([]uint64, 0, len(members)*vnodes),
		owners: make([]string, 0, len(members)*vnodes),
		nodes:  append([]string(nil), members...),
	}
	sort.Strings(r.nodes)
	type point struct {
		h    uint64
		node string
	}
	pts := make([]point, 0, len(members)*vnodes)
	for _, m := range r.nodes {
		for v := 0; v < vnodes; v++ {
			pts = append(pts, point{hash64(m + "#" + strconv.Itoa(v)), m})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].node < pts[j].node // deterministic on (absurdly rare) collisions
	})
	for _, p := range pts {
		r.hashes = append(r.hashes, p.h)
		r.owners = append(r.owners, p.node)
	}
	return r
}

// Owner returns the member owning the sensor ("" on an empty ring).
func (r *Ring) Owner(sensor string) string {
	p := r.Preference(sensor, 1)
	if len(p) == 0 {
		return ""
	}
	return p[0]
}

// Preference returns the first n distinct members clockwise from the
// sensor's hash point — the sensor's owner followed by its replica
// candidates. n is clamped to the member count.
func (r *Ring) Preference(sensor string, n int) []string {
	if len(r.hashes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(sensor)
	// First vnode at or after h, wrapping.
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for scanned := 0; scanned < len(r.hashes) && len(out) < n; scanned++ {
		node := r.owners[(i+scanned)%len(r.hashes)]
		if !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	return out
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmix64(h.Sum64())
}

// fmix64 is the 64-bit murmur3 finalizer. FNV-1a alone avalanches
// poorly on short, near-identical keys (vnode labels differ only in a
// trailing digit), which visibly skews arc lengths on the ring; the
// finalizer fixes the distribution without a new hash dependency.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
