package cluster

// Feed is one subscriber's list of the PMs bumped since its last Take —
// every write to a PM's occupancy, state or reliability (the contract on
// PM.dc). Every bump of a datacenter's PM appends the PM's ID to each of
// the datacenter's feeds, once per Take: a per-feed mark de-duplicates
// repeated bumps. A consumer that keeps per-PM derived state re-reads only
// the PMs its feed names instead of scanning the fleet.
//
// A feed is not state: it holds nothing a checkpoint needs, and a consumer
// restored from a checkpoint starts a fresh feed and re-derives what was
// pending. Every feed stays subscribed for the datacenter's life and costs
// each bump a mark, so only run-lifetime consumers subscribe.
type Feed struct {
	ids, spare []PMID
	marked     []bool
}

// Subscribe returns a new feed of d's PMs, empty until the next bump.
func (d *Datacenter) Subscribe() *Feed {
	f := &Feed{marked: make([]bool, len(d.pms))}
	d.feeds = append(d.feeds, f)
	return f
}

// Add records id as changed, as a bump would. Restore paths use it to
// re-queue what a checkpoint left pending.
func (f *Feed) Add(id PMID) {
	if !f.marked[id] {
		f.marked[id] = true
		f.ids = append(f.ids, id)
	}
}

// Take returns the PMs bumped since the previous Take, each once, in the
// order of their first bump, and empties the feed. The slice is valid
// until the next Take.
func (f *Feed) Take() []PMID {
	out := f.ids
	for _, id := range out {
		f.marked[id] = false
	}
	f.ids, f.spare = f.spare[:0], out
	return out
}

// Pending reports whether id has been bumped since the last Take.
func (f *Feed) Pending(id PMID) bool { return f.marked[id] }
