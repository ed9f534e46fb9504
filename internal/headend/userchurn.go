package headend

// Gateway churn: users (neighborhood gateways) leave and rejoin. A
// leaving gateway tears down its subscriptions and frees its capacity;
// while away it must not be assigned new streams; on rejoin it becomes
// eligible again (it does not automatically recover old streams — a
// gateway rebooting into the current lineup).

// UserChurnPolicy is implemented by policies that track gateway churn.
type UserChurnPolicy interface {
	Policy
	// OnUserLeave releases everything user u holds and stops assigning
	// to it.
	OnUserLeave(u int)
	// OnUserJoin makes user u eligible again.
	OnUserJoin(u int)
}

// OnUserLeave implements UserChurnPolicy for the online policy: the
// allocator releases the user's resources, and the user's utility row
// in the normalized instance is zeroed so Offer never selects it while
// away (the allocator reads utilities live). The release comes first:
// it takes the user's utility off the allocator's value.
func (p *OnlinePolicy) OnUserLeave(u int) {
	if u < 0 || u >= p.in.NumUsers() {
		return
	}
	if p.away == nil {
		p.away = make([]bool, p.in.NumUsers())
	}
	if p.away[u] {
		return
	}
	p.away[u] = true
	_, _ = p.allocator.ReleaseUser(u)
	clear(p.norm.Instance.Users[u].Utility)
	for held := p.assn.UserView(u); len(held) > 0; held = p.assn.UserView(u) {
		s := held[0]
		p.assn.Remove(u, s)
		if p.ledger != nil {
			p.ledger.Remove(u, s)
		}
	}
}

// OnUserJoin implements UserChurnPolicy for the online policy: the
// user's utility row is restored from the instance, which Normalize
// copied without scaling.
func (p *OnlinePolicy) OnUserJoin(u int) {
	if u < 0 || u >= len(p.away) || !p.away[u] {
		return
	}
	p.away[u] = false
	copy(p.norm.Instance.Users[u].Utility, p.in.Users[u].Utility)
}

// OnUserLeave implements UserChurnPolicy for the threshold policy.
func (p *ThresholdPolicy) OnUserLeave(u int) {
	if u < 0 || u >= p.in.NumUsers() {
		return
	}
	if p.away == nil {
		p.away = make([]bool, p.in.NumUsers())
	}
	if p.away[u] {
		return
	}
	p.away[u] = true
	for held := p.assn.UserView(u); len(held) > 0; held = p.assn.UserView(u) {
		s := held[0]
		p.assn.Remove(u, s)
		if !p.assn.InRange(s) {
			// Last holder gone: the stream leaves the server lineup.
			for i, c := range p.in.Streams[s].Costs {
				p.serverCost[i] -= c
				if p.serverCost[i] < 0 {
					p.serverCost[i] = 0
				}
			}
		}
	}
	clear(p.userLoad[u])
}

// OnUserJoin implements UserChurnPolicy for the threshold policy.
func (p *ThresholdPolicy) OnUserJoin(u int) {
	if u >= 0 && u < len(p.away) {
		p.away[u] = false
	}
}
