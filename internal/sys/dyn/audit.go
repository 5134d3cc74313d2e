package dyn

import (
	"anduril/internal/cluster"
	"anduril/internal/des"
)

// auditPeriod is how often the anti-entropy audit compares replica state
// against the acknowledged client state; auditGrace is how long continuous
// divergence may last before the audit escalates. Transient divergence —
// a write still replicating, hints pending for a briefly-unreachable
// node, a rebalance in flight — stays under the grace period in a
// fault-free run; anti-entropy defects do not.
const (
	auditPeriod = 50 * des.Millisecond
	auditGrace  = 600 * des.Millisecond
)

// expectPut / expectDelete record what clients have had acknowledged —
// the state the replicas must eventually converge on.
func (c *Cluster) expectPut(key, val string) { c.expected[key] = val }
func (c *Cluster) expectDelete(key string)   { c.expected[key] = tombSentinel }

const tombSentinel = "\x00deleted"

// startAudit runs the convergence audit: under the latest ring every
// owner of every acknowledged key must hold exactly the acknowledged
// state (a deleted key may be absent or hold a lone tombstone). The audit
// is harness-side observation — it reads replica state directly and never
// mutates it.
func (c *Cluster) startAudit() {
	env := c.env
	env.Sim.Every("dyn-audit", auditPeriod, func() {
		ring := c.latestRing()
		// Only the count of divergent keys is observed, and it does not
		// depend on the order the keys are visited in.
		divergent := 0
		for key, want := range c.expected {
			for _, owner := range ring.PreferenceList(key, c.cfg.N) {
				set := c.byName[owner].store[key]
				if want == tombSentinel {
					if len(set) == 0 || (len(set) == 1 && set[0].Tomb) {
						continue
					}
				} else if len(set) == 1 && !set[0].Tomb && set[0].Val == want {
					continue
				}
				divergent++
				break
			}
		}
		now := env.Sim.Now()
		if divergent > 0 {
			if !c.divergent {
				c.divergent = true
				c.divergentSince = now
				c.graceLogged = false
			}
			env.Log.Warnf("anti-entropy audit: %d keys divergent", divergent)
			if !c.graceLogged && now-c.divergentSince >= auditGrace {
				c.graceLogged = true
				env.Log.Warnf("anti-entropy audit: replicas diverged beyond grace period")
			}
			return
		}
		if c.divergent || !c.everAgreed {
			c.divergent = false
			c.everAgreed = true
			c.agreeSince = now
			env.Log.Infof("anti-entropy audit: replicas converged")
		}
	})
}

// latestRing is the most advanced ring any node holds — the membership
// the audit judges ownership by.
func (c *Cluster) latestRing() *Ring {
	best := c.byName[c.names[0]].ring
	for _, name := range c.names[1:] {
		if r := c.byName[name].ring; r.Version > best.Version {
			best = r
		}
	}
	return best
}

// convergence is the probe handed to cluster.Env.RegisterConvergence.
func (c *Cluster) convergence() cluster.Convergence {
	return cluster.Convergence{
		Tracked:   true,
		Converged: c.everAgreed && !c.divergent,
		Since:     c.agreeSince,
	}
}
