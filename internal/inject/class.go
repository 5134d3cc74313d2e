// Fault classes. The explorer searches one fault space — (site,
// occurrence) instances — but the sites come in four classes, each
// addressed through its own site-ID prefix:
//
//	site     dotted error-return sites ("dfs.datanode.receiveBlock.write")
//	env      environment faults the deployment inflicts: node crash with a
//	         later restart, pairwise partition with a later heal, and
//	         per-message drop or delay
//	partial  errno-level partial failures at the sim-syscall boundary: a
//	         write that persists only a prefix, ENOSPC midway through an
//	         append, a torn rename, a send interrupted after the bytes
//	         left, a message delivered twice
//	pair     two member faults injected in one round (see pair.go)
//
// Env and partial sites are *pseudo-sites*: the network and disk reach
// them per message or operation, so the explorer's universal currency
// covers them with no new plan, window, tried-set or checkpoint
// machinery. One table row per pseudo-fault kind defines everything
// about it — its ID grammar, fault Kind, duration, injection marker,
// synthetic ranking distance and amplitude floor:
//
//	env/crash/<node>                     crash the node, restart after 600ms
//	env/partition/<a>~<b>                cut the pair symmetrically, heal after 500ms
//	env/msg-drop/<from>><to>             silently drop one message on the channel
//	env/msg-delay/<from>><to>            delay one message by 400ms
//	partial/disk/short-write/<site>      persist a prefix of the data, then fail
//	partial/disk/enospc-after/<site>     append a prefix, then report no space
//	partial/disk/torn-rename/<site>      copy to destination but keep the source
//	partial/net/eintr/<site>             deliver the message but fail the sender
//	partial/net/dup-deliver/<from>><to>  deliver the same message twice
//
// The occurrence of a pseudo-site counts a deterministic per-run event
// stream: the network reaches every env site relevant to a message
// exactly once per message in a fixed order, and occurrence j of a
// partial disk site is the j-th operation at the wrapped site. Durations
// and partial semantics are fixed per kind (the short-write prefix is
// half the data; a duplicate arrives PartialDupOffset later), so an
// Instance alone reconstructs the fault. Pseudo-sites use '/'
// separators, so they never collide with dotted error-return site IDs.
package inject

import (
	"sort"
	"strconv"
	"strings"

	"anduril/internal/des"
)

// Class is a fault class. Its value is the class's position in window
// order: the explorer admits a class's candidates only once every
// earlier class is exhausted, so enabling a later class never perturbs
// an earlier class's search.
type Class uint8

// The fault classes, in window order.
const (
	ClassSite Class = iota
	ClassEnv
	ClassPartial
	ClassPair
	NumClasses
)

// classTable holds each class's name (as Options.FaultClasses spells
// it) and site-ID prefix, indexed by Class.
var classTable = [NumClasses]struct{ name, prefix string }{
	ClassSite:    {"site", ""},
	ClassEnv:     {"env", "env/"},
	ClassPartial: {"partial", "partial/"},
	ClassPair:    {"pair", "pair/"},
}

// String returns the class name.
func (c Class) String() string { return classTable[c].name }

// ClassOf returns the class a site ID belongs to, by its prefix.
func ClassOf(site string) Class {
	for c := ClassEnv; c < NumClasses; c++ {
		if strings.HasPrefix(site, classTable[c].prefix) {
			return c
		}
	}
	return ClassSite
}

// ClassByName looks a class up by name.
func ClassByName(name string) (Class, bool) {
	for c := Class(0); c < NumClasses; c++ {
		if classTable[c].name == name {
			return c, true
		}
	}
	return 0, false
}

// ClassNames lists the class names in window order.
func ClassNames() []string {
	out := make([]string, NumClasses)
	for c := range out {
		out[c] = classTable[c].name
	}
	return out
}

// ClassSet is a set of fault classes.
type ClassSet uint8

// SetOf returns the set holding the given classes.
func SetOf(cs ...Class) ClassSet {
	var s ClassSet
	for _, c := range cs {
		s |= 1 << c
	}
	return s
}

// Has reports whether c is in the set.
func (s ClassSet) Has(c Class) bool { return s&(1<<c) != 0 }

// ParseClasses builds the set named by a class list. Nil means the
// paper's site-only space; unknown names are ignored (callers validate
// with ClassByName up front).
func ParseClasses(names []string) ClassSet {
	if names == nil {
		return SetOf(ClassSite)
	}
	var s ClassSet
	for _, n := range names {
		if c, ok := ClassByName(n); ok {
			s |= SetOf(c)
		}
	}
	return s
}

// Names renders the set as an alphabetical name list.
func (s ClassSet) Names() []string {
	var out []string
	for c := Class(0); c < NumClasses; c++ {
		if s.Has(c) {
			out = append(out, c.String())
		}
	}
	sort.Strings(out)
	return out
}

// Pseudo is one pseudo-fault kind: a row of the pseudo-site table.
type Pseudo uint8

// The pseudo-fault kinds.
const (
	EnvCrash          Pseudo = iota // node down, restarted with recovered state
	EnvPartition                    // symmetric pairwise cut, healed later
	EnvDrop                         // one message silently lost
	EnvDelay                        // one message delayed past the receiver's patience
	PartialShortWrite               // disk: prefix persisted, then error
	PartialENOSPC                   // disk: prefix appended, then no space
	PartialTornRename               // disk: destination written, source kept
	PartialEINTR                    // net: delivered, but the sender sees EINTR
	PartialDupDeliver               // net: same message delivered twice
	numPseudo
)

// Fault kinds recorded for pseudo-faults. Crash and partition surface
// to peers as ConnectionErrors from the network layer; these kinds
// label the injection itself. Eintr reuses Interrupted, matching the
// errno.
const (
	CrashFault     Kind = "CrashFault"
	PartitionFault Kind = "PartitionFault"
	MsgDropFault   Kind = "MsgDropFault"
	MsgDelayFault  Kind = "MsgDelayFault"
	ShortWrite     Kind = "ShortWriteError"
	NoSpace        Kind = "NoSpaceError"
	TornRename     Kind = "TornRenameError"
	DupDeliver     Kind = "DupDeliverFault"
)

// PartialDupOffset is the fixed virtual-time offset at which the second
// copy of a duplicated message is delivered. It is a constant of the
// kind, not a plan parameter, so an Instance fully determines the run.
const PartialDupOffset = 250 * des.Millisecond

// shape is the subject grammar of a pseudo-site ID.
type shape uint8

const (
	shapeNode    shape = iota // one node: env/crash/zk3
	shapePair                 // unordered node pair: env/partition/a~b
	shapeChannel              // directed channel: env/msg-drop/from>to
	shapeSite                 // wrapped site ID: partial/disk/short-write/<site>
)

// sep returns the separator of a two-party subject ("" for one party).
func (s shape) sep() string {
	switch s {
	case shapePair:
		return "~"
	case shapeChannel:
		return ">"
	}
	return ""
}

// pseudoTable defines every pseudo-fault kind, indexed by Pseudo.
//
//   - duration: virtual time the fault lasts — down time before the
//     restart, cut time before the heal, added delivery latency (longer
//     than every target's RPC timeout, so the message looks lost but
//     still arrives). Zero for instantaneous kinds.
//   - marker: the log line the executing layer emits when the fault
//     fires. The explorer treats a failure-log observable equal to a
//     site's sanitized marker as direct evidence for that site, so both
//     layers read it from here.
//   - distance: the synthetic spatial distance standing in for every
//     L_{i,k} (pseudo-sites have no causal-graph node). It exceeds every
//     graph path in the dataset, so pseudo-sites rank below causally
//     connected sites until feedback reorders them. The env band encodes
//     blast radius (a crash perturbs the most); the partial band sits
//     above it, ordered by how much persistent state the fault corrupts.
//   - minAmp: the smallest observed payload at which an instance is a
//     candidate. A short write or mid-append ENOSPC needs two bytes for
//     the persisted prefix to be a nonempty strict prefix; smaller
//     payloads degrade to the clean failure the site class already covers.
var pseudoTable = [numPseudo]struct {
	name     string
	class    Class
	medium   string
	shape    shape
	kind     Kind
	duration des.Time
	marker   func(subject, peer string) string
	distance float64
	minAmp   int

	head string // site-ID prefix up to the subject, filled by init
}{
	EnvCrash: {name: "crash", class: ClassEnv, shape: shapeNode, kind: CrashFault,
		duration: 600 * des.Millisecond, distance: 24,
		marker: func(s, _ string) string { return "env: node " + s + " crashed" }},
	EnvPartition: {name: "partition", class: ClassEnv, shape: shapePair, kind: PartitionFault,
		duration: 500 * des.Millisecond, distance: 26,
		marker: func(s, p string) string { return "env: partition " + s + "/" + p + " cut" }},
	EnvDrop: {name: "msg-drop", class: ClassEnv, shape: shapeChannel, kind: MsgDropFault,
		distance: 28,
		marker:   func(s, p string) string { return "env: message " + s + ">" + p + " dropped" }},
	EnvDelay: {name: "msg-delay", class: ClassEnv, shape: shapeChannel, kind: MsgDelayFault,
		duration: 400 * des.Millisecond, distance: 30,
		marker: func(s, p string) string { return "env: message " + s + ">" + p + " delayed" }},
	PartialShortWrite: {name: "short-write", class: ClassPartial, medium: "disk", shape: shapeSite, kind: ShortWrite,
		distance: 36, minAmp: 2,
		marker: func(s, _ string) string { return "partial: short write at " + s }},
	PartialENOSPC: {name: "enospc-after", class: ClassPartial, medium: "disk", shape: shapeSite, kind: NoSpace,
		distance: 38, minAmp: 2,
		marker: func(s, _ string) string { return "partial: no space after partial append at " + s }},
	PartialTornRename: {name: "torn-rename", class: ClassPartial, medium: "disk", shape: shapeSite, kind: TornRename,
		distance: 34,
		marker:   func(s, _ string) string { return "partial: torn rename at " + s }},
	PartialEINTR: {name: "eintr", class: ClassPartial, medium: "net", shape: shapeSite, kind: Interrupted,
		distance: 42,
		marker:   func(s, _ string) string { return "partial: send at " + s + " interrupted" }},
	PartialDupDeliver: {name: "dup-deliver", class: ClassPartial, medium: "net", shape: shapeChannel, kind: DupDeliver,
		distance: 40,
		marker:   func(s, p string) string { return "partial: message " + s + ">" + p + " duplicated" }},
}

func init() {
	for i := range pseudoTable {
		r := &pseudoTable[i]
		r.head = classTable[r.class].prefix
		if r.medium != "" {
			r.head += r.medium + "/"
		}
		r.head += r.name + "/"
	}
}

// Name returns the kind's name, the class segment of its site IDs.
func (p Pseudo) Name() string { return pseudoTable[p].name }

// Class returns the fault class the kind belongs to.
func (p Pseudo) Class() Class { return pseudoTable[p].class }

// Kind returns the fault Kind recorded when the kind fires.
func (p Pseudo) Kind() Kind { return pseudoTable[p].kind }

// Duration returns how long the fault lasts in virtual time (zero for
// instantaneous kinds).
func (p Pseudo) Duration() des.Time { return pseudoTable[p].duration }

// Distance returns the kind's synthetic ranking distance.
func (p Pseudo) Distance() float64 { return pseudoTable[p].distance }

// MinAmp returns the smallest observed amplitude at which an instance
// of the kind is a search candidate (zero: every instance).
func (p Pseudo) MinAmp() int { return pseudoTable[p].minAmp }

// PseudoFault describes one pseudo-fault to execute: its kind, its
// subject (node, first node of a pair, sender, or wrapped site ID), its
// peer (second node or receiver; empty for single-subject kinds), the
// dynamic occurrence that triggered it, and the amplitude observed at
// the perturbed call (payload length for disk kinds; zero elsewhere).
type PseudoFault struct {
	Pseudo     Pseudo
	Subject    string
	Peer       string
	Occurrence int
	Amp        int
}

// Site returns the pseudo-site ID addressing this fault.
func (f PseudoFault) Site() string { return PseudoSiteID(f.Pseudo, f.Subject, f.Peer) }

// PseudoSiteID builds the pseudo-site ID for a kind and its subject.
// Pair subjects are order-insensitive: env/partition/a~b and
// env/partition/b~a are the same site.
func PseudoSiteID(p Pseudo, subject, peer string) string {
	r := &pseudoTable[p]
	sep := r.shape.sep()
	if sep == "" {
		return r.head + subject
	}
	if r.shape == shapePair && peer < subject {
		subject, peer = peer, subject
	}
	return r.head + subject + sep + peer
}

// ParsePseudoSite decodes a pseudo-site ID into a PseudoFault template
// (Occurrence and Amp zero). It is the inverse of PseudoSiteID.
func ParsePseudoSite(site string) (PseudoFault, bool) {
	for p := Pseudo(0); p < numPseudo; p++ {
		r := &pseudoTable[p]
		subject, ok := strings.CutPrefix(site, r.head)
		if !ok {
			continue
		}
		f := PseudoFault{Pseudo: p, Subject: subject}
		if sep := r.shape.sep(); sep != "" {
			f.Subject, f.Peer, ok = strings.Cut(subject, sep)
			ok = ok && f.Peer != ""
		}
		if !ok || f.Subject == "" {
			return PseudoFault{}, false
		}
		return f, true
	}
	return PseudoFault{}, false
}

// Marker returns the log line the executing layer emits when the fault
// fires.
func (f PseudoFault) Marker() string { return pseudoTable[f.Pseudo].marker(f.Subject, f.Peer) }

// Active reports whether sites of a pseudo-site class are reached
// (counted, traced, injectable) this run. The disk and network skip
// their per-operation sweeps — including building the pseudo-site IDs —
// for inactive classes, so runs without them pay nothing and keep
// byte-identical traces and occurrence counts.
func (r *Runtime) Active(c Class) bool { return r.active.Has(c) }

// Enable opts the run into the given classes' pseudo-sites. A plan
// whose candidates address a class enables it on its own, so replaying
// a reproduction script needs no option.
func (r *Runtime) Enable(s ClassSet) { r.active |= s }

// ReachPseudo is the pseudo-site analog of Reach, called by the network
// once per (message, pseudo-site) pair and by the disk once per
// perturbable operation. amp is the operation's observed amplitude
// (payload length for disk writes, zero where amplitude is
// meaningless). It records the dynamic occurrence and returns the
// fault to execute if the plan injects here; for a site of an inactive
// class it is a no-op returning false.
func (r *Runtime) ReachPseudo(site string, amp int) (PseudoFault, bool) {
	f, ok := ParsePseudoSite(site)
	if !ok || !r.Active(f.Pseudo.Class()) {
		return PseudoFault{}, false
	}
	rec := r.site(site)
	rec.count++
	rec.kind = f.Pseudo.Kind()
	occ := rec.count

	// Pseudo-sites are always root-addressed: their occurrence is
	// already a deterministic per-run event index, so the path form is
	// simply "site#occ" with no context edges.
	path := ""
	if r.paths {
		path = site + "#" + strconv.Itoa(occ)
	}
	inject := r.decide(site, occ, path)

	if r.KeepTrace || inject {
		r.recordAmp(site, occ, path, inject, amp)
	}

	if !inject {
		return PseudoFault{}, false
	}
	f.Occurrence = occ
	f.Amp = amp
	return f, true
}

// carried is what a plan's candidates address: the classes of their
// sites and whether any is path-addressed. The runtime enables exactly
// these classes (and path bookkeeping) on its own.
type carried struct {
	classes ClassSet
	paths   bool
}

// add folds one candidate instance into the summary.
func (c *carried) add(inst Instance) {
	c.classes |= SetOf(ClassOf(inst.Site))
	c.paths = c.paths || inst.Path != ""
}

// planCarries reports what a plan carries; a nil plan carries nothing.
func planCarries(p Plan) carried {
	if p == nil {
		return carried{}
	}
	return p.carries()
}
