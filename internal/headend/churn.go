package headend

// DeparturePolicy is implemented by policies that track stream
// departures (the paper's footnote 1 extension: streams of finite
// duration). Policies that do not implement it simply keep stale state;
// Tenant.DepartStream still drops the stream from the running
// assignment.
type DeparturePolicy interface {
	Policy
	// OnStreamDeparture releases the stream's resources.
	OnStreamDeparture(s int)
}

// OnStreamDeparture implements DeparturePolicy for the online policy by
// releasing the stream from the allocator, the running assignment, and
// (guarded mode) the feasibility ledger — or, on the rescan reference
// path, the recorded charge scale (the refund side of a discounted
// admission, mirroring the ledger's scale bookkeeping).
func (p *OnlinePolicy) OnStreamDeparture(s int) {
	p.allocator.Release(s)
	for u := 0; u < p.assn.NumUsers(); u++ {
		if !p.assn.Has(u, s) {
			continue
		}
		p.assn.Remove(u, s)
		if p.ledger != nil {
			p.ledger.Remove(u, s)
		}
	}
	delete(p.scale, s)
}

// OnStreamDeparture implements DeparturePolicy for the threshold policy.
func (p *ThresholdPolicy) OnStreamDeparture(s int) {
	held := false
	for u := 0; u < p.assn.NumUsers(); u++ {
		if !p.assn.Has(u, s) {
			continue
		}
		held = true
		p.assn.Remove(u, s)
		usr := &p.in.Users[u]
		for j := range usr.Capacities {
			p.userLoad[u][j] -= usr.Loads[j][s]
			if p.userLoad[u][j] < 0 {
				p.userLoad[u][j] = 0
			}
		}
	}
	if held {
		for i, c := range p.in.Streams[s].Costs {
			p.serverCost[i] -= c
			if p.serverCost[i] < 0 {
				p.serverCost[i] = 0
			}
		}
	}
}
