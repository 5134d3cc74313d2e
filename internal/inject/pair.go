// Combined-fault addressing. Some failures only manifest when two
// faults land in one execution — a first fault that corrupts state and a
// second that blocks the recovery path. A fault *pair* is addressed
// through a pseudo-site, exactly like the environment classes, so the
// explorer's (site, occurrence) currency covers combinations without new
// plan, tried-set or checkpoint machinery:
//
//	pair/<siteA>+<siteB>    the unordered pair of member fault sites
//
// A pair *instance* additionally needs its two member instances; they
// ride in the Instance's Path field as two member references joined by
// '+' (the one character no site ID, env site ID or path string may
// contain). A member reference is either the member's full canonical
// path string (under path addressing) or "site:occ" (under occurrence
// addressing) — ':' likewise never appears in either grammar, keeping
// the two forms distinguishable on parse.
package inject

import (
	"strconv"
	"strings"
)

// PairSiteID builds the pseudo-site ID for an unordered pair of member
// fault sites. The members are sorted so PairSiteID(a, b) == PairSiteID(b, a).
func PairSiteID(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return classTable[ClassPair].prefix + a + "+" + b
}

// memberRef renders one pair member as a replayable reference.
func memberRef(m Instance) string {
	if m.Path != "" {
		return m.Path
	}
	return m.Site + ":" + strconv.Itoa(m.Occurrence)
}

// parseMemberRef decodes a member reference back into an Instance.
func parseMemberRef(ref string) (Instance, bool) {
	if i := strings.LastIndexByte(ref, ':'); i >= 0 {
		occ, err := strconv.Atoi(ref[i+1:])
		if err != nil || occ < 1 || ref[:i] == "" {
			return Instance{}, false
		}
		return Instance{Site: ref[:i], Occurrence: occ}, true
	}
	addr, ok := ParsePathAddr(ref)
	if !ok {
		return Instance{}, false
	}
	return Instance{Site: addr.Site, Path: ref}, true
}

// PairInstance builds the combined Instance for two member instances.
// The member references are sorted into a canonical order; Occurrence is
// left zero for the caller (the explorer numbers pair instances within
// their pair site).
func PairInstance(a, b Instance) Instance {
	ra, rb := memberRef(a), memberRef(b)
	if rb < ra {
		ra, rb = rb, ra
	}
	return Instance{Site: PairSiteID(a.Site, b.Site), Path: ra + "+" + rb}
}

// PairMembers decodes a pair Instance back into its two member
// instances (ok false if inst is not a well-formed pair).
func PairMembers(inst Instance) (a, b Instance, ok bool) {
	if ClassOf(inst.Site) != ClassPair {
		return Instance{}, Instance{}, false
	}
	ra, rb, found := strings.Cut(inst.Path, "+")
	if !found || ra == "" || rb == "" {
		return Instance{}, Instance{}, false
	}
	a, ok = parseMemberRef(ra)
	if !ok {
		return Instance{}, Instance{}, false
	}
	b, ok = parseMemberRef(rb)
	if !ok {
		return Instance{}, Instance{}, false
	}
	return a, b, true
}

// PairPlan arms k ranked pair candidates for one round. The first reach
// matching any armed member commits the round to the best-ranked pair
// containing that member; from then on only the committed pair's other
// member may fire, so the round carries exactly the two faults of one
// pair (or one, if injecting the first member steers execution away from
// the second). The plan is stateful — build a fresh one per trial run.
type PairPlan struct {
	pairs     [][2]Instance // rank order, best first
	committed int           // index into pairs, -1 until the first member fires
	fired     [2]bool
	c         carried // what the members address
}

// PairWindow returns a plan arming the given pairs, best-ranked first.
func PairWindow(pairs [][2]Instance) *PairPlan {
	p := &PairPlan{pairs: pairs, committed: -1}
	for _, pr := range pairs {
		p.c.add(pr[0])
		p.c.add(pr[1])
	}
	return p
}

func (p *PairPlan) carries() carried { return p.c }

// matchMember reports whether a reach matches one member instance.
func matchMember(m Instance, site string, occ int, path string) bool {
	if m.Path != "" {
		return path != "" && m.Path == path
	}
	return m.Site == site && m.Occurrence == occ
}

// Decide implements Plan.
func (p *PairPlan) Decide(site string, occ int, path string) bool {
	if p.committed >= 0 {
		pr := &p.pairs[p.committed]
		for i := 0; i < 2; i++ {
			if !p.fired[i] && matchMember(pr[i], site, occ, path) {
				p.fired[i] = true
				return true
			}
		}
		return false
	}
	for i := range p.pairs {
		for j := 0; j < 2; j++ {
			if matchMember(p.pairs[i][j], site, occ, path) {
				p.committed = i
				p.fired[j] = true
				return true
			}
		}
	}
	return false
}

// Budget implements Budgeter: a pair round injects up to two faults.
func (p *PairPlan) Budget() int { return 2 }

// Reset implements Resetter: uncommits the plan for a fresh trial.
func (p *PairPlan) Reset() {
	p.committed = -1
	p.fired = [2]bool{}
}

// Committed reports which armed pair (by rank index) the run committed
// to, once any member has fired.
func (p *PairPlan) Committed() (int, bool) { return p.committed, p.committed >= 0 }
