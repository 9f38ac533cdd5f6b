package adversary_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

// randomLedger builds a ledger with random observations spread over a
// few observers, subjects, and a small handle universe, so linkage is
// sometimes possible and sometimes not.
func randomLedger(rng *rand.Rand, trial int) (*ledger.Ledger, []string) {
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)
	observers := []string{"A", "B", "C", "D"}
	for i := 0; i < 40; i++ {
		subj := fmt.Sprintf("s%d", rng.Intn(5))
		obsr := observers[rng.Intn(len(observers))]
		handles := []string{}
		for h := 0; h < 1+rng.Intn(2); h++ {
			handles = append(handles, fmt.Sprintf("h%d", rng.Intn(12)))
		}
		if rng.Intn(2) == 0 {
			v := fmt.Sprintf("id-%d-%d", trial, i)
			lvl := core.Sensitive
			if rng.Intn(4) == 0 {
				lvl = core.NonSensitive
			}
			cls.RegisterIdentity(v, subj, "", lvl)
			lg.SawIdentity(obsr, v, handles...)
		} else {
			v := fmt.Sprintf("d-%d-%d", trial, i)
			lvl := core.Sensitive
			switch rng.Intn(4) {
			case 0:
				lvl = core.NonSensitive
			case 1:
				lvl = core.Partial
			}
			cls.RegisterData(v, subj, "", lvl)
			lg.SawData(obsr, v, handles...)
		}
	}
	return lg, observers
}

// TestLinkEvidencePathValidity is the property test: for random
// observation sets and coalitions, LinkSubjects, Chains and Partition
// agree with a naive reference and every reported link carries a chain
// that actually proves it (see checkLinkage).
func TestLinkEvidencePathValidity(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		lg, observers := randomLedger(rng, trial)
		coalition := observers[:1+rng.Intn(len(observers))]
		checkLinkage(t, fmt.Sprintf("trial %d", trial), lg.Observations(), coalition)
	}
}

// FuzzLinkSubjects runs the checkLinkage property over ledgers drawn by
// randomLedger from a fuzzed seed, under a fuzzed coalition (bit i of
// mask admits observer i).
func FuzzLinkSubjects(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Add(int64(23), uint8(0x0f))
	f.Fuzz(func(t *testing.T, seed int64, mask uint8) {
		lg, observers := randomLedger(rand.New(rand.NewSource(seed)), 0)
		var coalition []string
		for i, o := range observers {
			if mask&(1<<i) != 0 {
				coalition = append(coalition, o)
			}
		}
		checkLinkage(t, fmt.Sprintf("seed %d mask %#x", seed, mask), lg.Observations(), coalition)
	})
}

// checkLinkage asserts, against a naive reference that breadth-first
// searches the coalition's observations pairwise for shared handles:
//
//   - LinkSubjects reports Linked exactly when a search from one of the
//     subject's sensitive identity observations reaches one of its
//     sensitive-or-partial data observations;
//   - Chains gives every linked subject a shortest chain from the first
//     such identity: consecutive observations share the stated handle,
//     every observation belongs to a coalition member, the first is a
//     sensitive identity of the subject and the last is
//     sensitive-or-partial data of the subject; unlinked subjects get
//     no chain;
//   - Partition's components are exactly the reachability classes,
//     hold only coalition observations, are numbered by lowest member
//     index, and are COUPLED iff some subject has both sides inside.
func checkLinkage(t *testing.T, name string, obs []ledger.Observation, coalition []string) {
	t.Helper()
	members := map[string]bool{}
	for _, m := range coalition {
		members[m] = true
	}
	isID := func(o ledger.Observation, s string) bool {
		return o.Subject == s && o.Kind == core.Identity && o.Level == core.Sensitive
	}
	isData := func(o ledger.Observation, s string) bool {
		return o.Subject == s && o.Kind == core.Data && o.Level >= core.Partial
	}
	// dist[i][j] is the number of handle steps from i to j, -1 when j is
	// unreachable or either lies outside the coalition.
	dist := make([][]int, len(obs))
	for i := range obs {
		dist[i] = make([]int, len(obs))
		for j := range dist[i] {
			dist[i][j] = -1
		}
		if !members[obs[i].Observer] {
			continue
		}
		dist[i][i] = 0
		for frontier := []int{i}; len(frontier) > 0; {
			var next []int
			for _, a := range frontier {
				for b := range obs {
					if dist[i][b] < 0 && members[obs[b].Observer] && sharesHandle(obs[a], obs[b]) {
						dist[i][b] = dist[i][a] + 1
						next = append(next, b)
					}
				}
			}
			frontier = next
		}
	}

	results := adversary.LinkSubjects(obs, coalition)
	adversary.Chains(obs, coalition, results)
	for _, r := range results {
		// Reference: the first identity reaching any data, its distance
		// to the nearest one, and the first pair scanned — the first
		// identity and data overall, or the first identity reaching data
		// and the first data it reaches.
		start, nearest := -1, -1
		var idValue, dataValue string
		for i, o := range obs {
			if !members[o.Observer] {
				continue
			}
			if isData(o, r.Subject) && dataValue == "" {
				dataValue = o.Value
			}
			if !isID(o, r.Subject) || start >= 0 {
				continue
			}
			if idValue == "" {
				idValue = o.Value
			}
			for j, d := range obs {
				if dist[i][j] >= 0 && isData(d, r.Subject) && (nearest < 0 || dist[i][j] < nearest) {
					if nearest < 0 {
						idValue, dataValue = o.Value, d.Value
					}
					nearest = dist[i][j]
				}
			}
			if nearest >= 0 {
				start = i
			}
		}
		if r.Linked != (start >= 0) {
			t.Fatalf("%s subject %q: Linked=%v, reference says %v", name, r.Subject, r.Linked, start >= 0)
		}
		if r.IdentityValue != idValue || r.DataValue != dataValue {
			t.Errorf("%s subject %q: values %q/%q, want first pair scanned %q/%q",
				name, r.Subject, r.IdentityValue, r.DataValue, idValue, dataValue)
		}
		if !r.Linked {
			if r.Path != nil {
				t.Errorf("%s subject %q: unlinked but path %v", name, r.Subject, r.Path)
			}
			continue
		}
		if len(r.Path) == 0 {
			t.Fatalf("%s subject %q: linked without a path", name, r.Subject)
		}
		if r.Path[0].Obs != start || len(r.Path) != nearest+1 {
			t.Errorf("%s subject %q: chain %v, want a %d-hop chain from #%d", name, r.Subject, r.Path, nearest+1, start)
		}
		first := obs[r.Path[0].Obs]
		last := obs[r.Path[len(r.Path)-1].Obs]
		if !isID(first, r.Subject) {
			t.Errorf("%s subject %q: chain starts at %+v, not a sensitive identity", name, r.Subject, first)
		}
		if !isData(last, r.Subject) {
			t.Errorf("%s subject %q: chain ends at %+v, not sensitive/partial data", name, r.Subject, last)
		}
		for j, hop := range r.Path {
			o := obs[hop.Obs]
			if !members[o.Observer] {
				t.Errorf("%s subject %q hop %d: observer %q outside coalition", name, r.Subject, j, o.Observer)
			}
			if j == len(r.Path)-1 {
				if hop.Handle != "" {
					t.Errorf("%s subject %q: final hop carries handle %q", name, r.Subject, hop.Handle)
				}
				continue
			}
			if hop.Handle == "" {
				t.Errorf("%s subject %q hop %d: missing handle", name, r.Subject, j)
				continue
			}
			if !hasHandle(o, hop.Handle) || !hasHandle(obs[r.Path[j+1].Obs], hop.Handle) {
				t.Errorf("%s subject %q hop %d: handle %q not shared by both endpoints", name, r.Subject, j, hop.Handle)
			}
		}
	}

	comp := make([]int, len(obs))
	for i := range comp {
		comp[i] = -1
	}
	lowest := -1
	for c, p := range adversary.Partition(obs, coalition) {
		if len(p.Obs) == 0 || p.Obs[0] <= lowest {
			t.Fatalf("%s: component %d %v not numbered by lowest member index", name, c, p.Obs)
		}
		lowest = p.Obs[0]
		ids, data := map[string]bool{}, map[string]bool{}
		for k, i := range p.Obs {
			if k > 0 && i <= p.Obs[k-1] {
				t.Errorf("%s: component %d members %v not ascending", name, c, p.Obs)
			}
			if !members[obs[i].Observer] {
				t.Errorf("%s: component %d holds #%d of non-member %q", name, c, i, obs[i].Observer)
			}
			if comp[i] >= 0 {
				t.Errorf("%s: #%d in components %d and %d", name, i, comp[i], c)
			}
			comp[i] = c
			if s := obs[i].Subject; isID(obs[i], s) {
				ids[s] = true
			} else if isData(obs[i], s) {
				data[s] = true
			}
		}
		coupled := false
		var subjects []string
		for s := range ids {
			coupled = coupled || data[s]
			subjects = append(subjects, s)
		}
		for s := range data {
			if !ids[s] {
				subjects = append(subjects, s)
			}
		}
		sort.Strings(subjects)
		if p.Coupled != coupled {
			t.Errorf("%s: component %d Coupled=%v, want %v", name, c, p.Coupled, coupled)
		}
		if fmt.Sprint(p.Subjects) != fmt.Sprint(subjects) {
			t.Errorf("%s: component %d subjects %v, want %v", name, c, p.Subjects, subjects)
		}
	}
	for i := range obs {
		if members[obs[i].Observer] != (comp[i] >= 0) {
			t.Errorf("%s: #%d (observer %q) in component %d", name, i, obs[i].Observer, comp[i])
		}
		for j := range obs {
			if comp[i] >= 0 && comp[j] >= 0 && (comp[i] == comp[j]) != (dist[i][j] >= 0) {
				t.Errorf("%s: #%d and #%d in components %d/%d, reachable=%v", name, i, j, comp[i], comp[j], dist[i][j] >= 0)
			}
		}
	}
}

func sharesHandle(a, b ledger.Observation) bool {
	for _, h := range a.Handles {
		if hasHandle(b, h) {
			return true
		}
	}
	return false
}

func hasHandle(o ledger.Observation, h string) bool {
	for _, x := range o.Handles {
		if x == h {
			return true
		}
	}
	return false
}

// TestLinkEvidenceNoCollusion is the negative case: a coalition that
// holds only one side of the join, or no entities at all, must report
// no links and no paths even though the full observation set links.
func TestLinkEvidenceNoCollusion(t *testing.T) {
	t.Parallel()
	cls := ledger.NewClassifier()
	cls.RegisterIdentity("alice-addr", "alice", "", core.Sensitive)
	cls.RegisterData("alice-query", "alice", "", core.Sensitive)
	lg := ledger.NewRetaining(cls, nil)
	// Proxy holds the identity, server the data, joined via h-shared —
	// but only when both collude.
	lg.SawIdentity("Proxy", "alice-addr", "h-shared")
	lg.SawData("Server", "alice-query", "h-shared")
	obs := lg.Observations()

	full := adversary.LinkSubjects(obs, []string{"Proxy", "Server"})
	adversary.Chains(obs, []string{"Proxy", "Server"}, full)
	if len(full) != 1 || !full[0].Linked || len(full[0].Path) != 2 {
		t.Fatalf("full coalition should link via a 2-hop chain: %+v", full)
	}
	if full[0].Path[0].Handle != "h-shared" {
		t.Errorf("chain handle = %q, want h-shared", full[0].Path[0].Handle)
	}

	for _, coalition := range [][]string{{"Proxy"}, {"Server"}, {}} {
		res := adversary.LinkSubjects(obs, coalition)
		adversary.Chains(obs, coalition, res)
		for _, r := range res {
			if r.Linked || r.Path != nil {
				t.Errorf("coalition %v: unexpected link %+v", coalition, r)
			}
		}
	}
}

// TestLinkEvidenceSameObservation covers the degenerate chain: one
// coalition member observed identity and data… as two observations
// sharing a handle, and an entity that saw both in a single record
// partition (VPN-style), producing minimal 2-hop chains.
func TestLinkEvidenceSameObservation(t *testing.T) {
	t.Parallel()
	cls := ledger.NewClassifier()
	cls.RegisterIdentity("10.0.0.1", "bob", "", core.Sensitive)
	cls.RegisterData("http://x/secret", "bob", "", core.Sensitive)
	lg := ledger.NewRetaining(cls, nil)
	lg.SawIdentity("VPN", "10.0.0.1", "sess1")
	lg.SawData("VPN", "http://x/secret", "sess1")
	obs := lg.Observations()
	res := adversary.LinkSubjects(obs, []string{"VPN"})
	adversary.Chains(obs, []string{"VPN"}, res)
	if len(res) != 1 || !res[0].Linked {
		t.Fatalf("VPN alone must link: %+v", res)
	}
	if len(res[0].Path) != 2 {
		t.Errorf("want minimal 2-hop chain, got %v", res[0].Path)
	}
}
