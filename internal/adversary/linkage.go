package adversary

import (
	"sort"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

// This file is the one coalition-linkage engine. A coalition's
// observations and the handles they carry form a bipartite graph; the
// coalition can join two facts exactly when they sit in one connected
// component. Verdicts (LinkSubjects), proving chains (Chains) and the
// rendered partition graph (Partition) all read the same partition,
// and the measured and static closures share one components function
// over core.DisjointSet.

// LinkResult reports whether a coalition can tie one subject's sensitive
// identity to their sensitive data.
type LinkResult struct {
	Subject       string
	IdentityValue string
	DataValue     string
	Linked        bool
	// Path is the minimal chain of coalition observations proving the
	// link, each sharing a handle with the next, from a sensitive
	// identity observation of the subject to its nearest sensitive (or
	// partial) data observation — not necessarily the one DataValue
	// names. LinkSubjects leaves it nil; Chains fills it in.
	Path []Hop
}

// Hop is one step of a linkage evidence chain: an observation (an
// index into the slice passed to Chains) and the handle it shares with
// the next hop's observation ("" on the final hop).
type Hop struct {
	Obs    int
	Handle string
}

// Component is one connected component of a coalition's
// observation/handle graph.
type Component struct {
	// Obs are the member observations' indices, ascending.
	Obs []int
	// Subjects are the subjects with a sensitive identity or sensitive
	// (or partial) data observation inside the component, sorted.
	Subjects []string
	// Coupled reports whether some subject has both inside it.
	Coupled bool
}

// identitySide reports whether o is a subject's sensitive identity: the
// side of the join a coalition starts from.
func identitySide(o ledger.Observation) bool {
	return o.Subject != "" && o.Kind == core.Identity && o.Level == core.Sensitive
}

// dataSide reports whether o is a subject's sensitive or partial data:
// the side of the join a coalition must reach.
func dataSide(o ledger.Observation) bool {
	return o.Subject != "" && o.Kind == core.Data && o.Level >= core.Partial
}

// components groups the items 0..n-1 that member admits into connected
// components, where two items connect when they carry a common handle.
// It returns each item's component, numbered in order of lowest member
// index (-1 for non-members), and the number of components.
func components(n int, member func(int) bool, handles func(int) []string) (comp []int, count int) {
	d := core.NewDisjointSet(n)
	first := map[string]int{}
	for i := 0; i < n; i++ {
		if !member(i) {
			continue
		}
		for _, h := range handles(i) {
			if j, ok := first[h]; ok {
				d.Union(i, j)
			} else {
				first[h] = i
			}
		}
	}
	comp = make([]int, n)
	number := make([]int, n) // root -> component + 1
	for i := range comp {
		if !member(i) {
			comp[i] = -1
			continue
		}
		r := d.Find(i)
		if number[r] == 0 {
			count++
			number[r] = count
		}
		comp[i] = number[r] - 1
	}
	return comp, count
}

// linkage is a coalition's partitioned observation graph with each
// subject's identity and data observations.
type linkage struct {
	comp  []int
	count int
	ids   map[string][]int // subject -> identity-side observations, ascending
	data  map[string][]int // subject -> data-side observations, ascending
}

func newLinkage(obs []ledger.Observation, coalition []string) *linkage {
	members := map[string]bool{}
	for _, m := range coalition {
		members[m] = true
	}
	l := &linkage{ids: map[string][]int{}, data: map[string][]int{}}
	l.comp, l.count = components(len(obs),
		func(i int) bool { return members[obs[i].Observer] },
		func(i int) []string { return obs[i].Handles })
	for i, o := range obs {
		switch {
		case l.comp[i] < 0:
		case identitySide(o):
			l.ids[o.Subject] = append(l.ids[o.Subject], i)
		case dataSide(o):
			l.data[o.Subject] = append(l.data[o.Subject], i)
		}
	}
	return l
}

// join returns the subject's first identity observation whose component
// holds one of its data observations, and the lowest such data
// observation; ok is false when no component holds both.
func (l *linkage) join(subject string) (id, data int, ok bool) {
	firstData := map[int]int{} // component -> lowest data observation
	for _, d := range l.data[subject] {
		if _, seen := firstData[l.comp[d]]; !seen {
			firstData[l.comp[d]] = d
		}
	}
	for _, id := range l.ids[subject] {
		if d, ok := firstData[l.comp[id]]; ok {
			return id, d, true
		}
	}
	return 0, 0, false
}

// LinkSubjects runs the coalition linkage attack: given all recorded
// observations and the names of colluding entities, it determines for
// each subject whether the coalition can connect a sensitive identity
// observation to a sensitive (or partial) data observation through a
// chain of shared linkage handles. Records that share no handle are two
// unrelated rows even inside one entity's database: a VPN couples its
// clients because both sides of a session carry the same session
// handle, not merely because both rows sit on the same disk.
func LinkSubjects(obs []ledger.Observation, coalition []string) []LinkResult {
	l := newLinkage(obs, coalition)
	subjects := make([]string, 0, len(l.ids))
	for s := range l.ids {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects)

	var results []LinkResult
	for _, s := range subjects {
		r := LinkResult{Subject: s, IdentityValue: obs[l.ids[s][0]].Value}
		if id, d, ok := l.join(s); ok {
			r.Linked, r.IdentityValue, r.DataValue = true, obs[id].Value, obs[d].Value
		} else if len(l.data[s]) > 0 {
			r.DataValue = obs[l.data[s][0]].Value
		}
		results = append(results, r)
	}
	return results
}

// Chains fills in Path for each linked result of LinkSubjects(obs,
// coalition). The chain starts at the subject's first identity
// observation whose component holds one of its data observations and is
// found by breadth-first search over the observation/handle graph, so
// it is a shortest chain; iteration orders are fixed, making it
// deterministic for a given observation slice. It is a step apart from
// LinkSubjects so that verdict-only callers never pay for the search:
// under a coalition whose observations all fall into one component, a
// search per subject costs subjects × observations.
func Chains(obs []ledger.Observation, coalition []string, results []LinkResult) {
	l := newLinkage(obs, coalition)
	handleObs := map[string][]int{}
	for i, o := range obs {
		if l.comp[i] < 0 {
			continue
		}
		for _, h := range o.Handles {
			handleObs[h] = append(handleObs[h], i)
		}
	}
	for k := range results {
		r := &results[k]
		if !r.Linked {
			continue
		}
		start, _, ok := l.join(r.Subject)
		if !ok {
			continue
		}
		targets := map[int]bool{}
		for _, d := range l.data[r.Subject] {
			targets[d] = true
		}
		r.Path = shortestChain(obs, handleObs, start, targets)
	}
}

// Partition groups the coalition's observations into the connected
// components of its observation/handle graph, numbered by lowest member
// index. Observations outside the coalition belong to no component.
// Each coupled component is one realized privacy violation under full
// collusion.
func Partition(obs []ledger.Observation, coalition []string) []Component {
	l := newLinkage(obs, coalition)
	out := make([]Component, l.count)
	for i, c := range l.comp {
		if c >= 0 {
			out[c].Obs = append(out[c].Obs, i)
		}
	}
	for c := range out {
		ids, data := map[string]bool{}, map[string]bool{}
		for _, i := range out[c].Obs {
			switch o := obs[i]; {
			case identitySide(o):
				ids[o.Subject] = true
			case dataSide(o):
				data[o.Subject] = true
			}
		}
		for s := range ids {
			out[c].Subjects = append(out[c].Subjects, s)
			if data[s] {
				out[c].Coupled = true
			}
		}
		for s := range data {
			if !ids[s] {
				out[c].Subjects = append(out[c].Subjects, s)
			}
		}
		sort.Strings(out[c].Subjects)
	}
	return out
}

// shortestChain BFSes from the start observation to any observation in
// targets, stepping observation → handle → observation. It returns the
// hop list including start and the reached target, or nil when no
// target is reachable. A start that is itself a target yields a
// single-hop chain.
func shortestChain(obs []ledger.Observation, handleObs map[string][]int, start int, targets map[int]bool) []Hop {
	if targets[start] {
		return []Hop{{Obs: start}}
	}
	parents := map[int]chainParent{start: {prev: -1}}
	frontier := []int{start}
	for len(frontier) > 0 {
		var next []int
		for _, i := range frontier {
			for _, h := range obs[i].Handles {
				for _, j := range handleObs[h] {
					if _, seen := parents[j]; seen {
						continue
					}
					parents[j] = chainParent{prev: i, handle: h}
					if targets[j] {
						return buildChain(parents, j)
					}
					next = append(next, j)
				}
			}
		}
		frontier = next
	}
	return nil
}

// chainParent records how BFS first reached an observation: from which
// previous observation, over which shared handle.
type chainParent struct {
	prev   int
	handle string
}

// buildChain walks parent pointers back from the reached data
// observation to the identity start, emitting hops in forward order.
func buildChain(parents map[int]chainParent, end int) []Hop {
	var rev []Hop
	for i := end; i >= 0; {
		p := parents[i]
		rev = append(rev, Hop{Obs: i, Handle: p.handle})
		i = p.prev
	}
	out := make([]Hop, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	// The handle recorded on each node is the edge *into* it; shift so
	// each hop carries the handle shared with the next observation, and
	// the final hop carries none.
	for i := 0; i < len(out)-1; i++ {
		out[i].Handle = out[i+1].Handle
	}
	out[len(out)-1].Handle = ""
	return out
}
