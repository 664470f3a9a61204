package wechat

import (
	"fmt"
	"math/rand"

	"locec/internal/graph"
)

// Group is a chat group. Kind records the circle type it grew out of
// (mixed social groups use KindHobby with no name signal); Name is "" for
// the majority of groups, which carry no indicative name.
type Group struct {
	Name    string
	Kind    CircleKind
	Members []graph.NodeID
}

// Name pattern fragments for the minority of groups with indicative names.
// The groupname rule miner (Table II) matches on the suffix keywords.
var (
	familyNamePatterns = []string{"%s Family", "%s Family Group", "House of %s"}
	workNamePatterns   = []string{"%s Dept", "%s Company %s Dept", "%s Project Team"}
	schoolNamePatterns = []string{"Class %s of %s Middle School", "%s University Class %s", "Class of %s"}
	neutralNames       = []string{"Weekend Fun", "Happy Group", "Good Friends", "The Gang", "Chat", ""}
	surnames           = []string{"Zhang", "Wang", "Li", "Zhao", "Chen", "Liu", "Yang", "Huang", "Zhou", "Wu"}
	orgNames           = []string{"Red", "Blue", "Gold", "Star", "Lake", "River", "Hill", "Cloud", "Pine", "Stone"}
)

// generateGroups creates chat groups out of circles plus cross-circle mixed
// groups, then tabulates common-group counts per friend pair.
func (net *Network) generateGroups(rng *rand.Rand) {
	cfg := net.Cfg
	for _, c := range net.Circles {
		switch c.Kind {
		case KindFamily:
			if rng.Float64() < cfg.FamilyGroupProb {
				net.addGroup(rng, c.Kind, c.Members, 1.0)
			}
		case KindWorkCurrent, KindWorkPast:
			if rng.Float64() < cfg.WorkGroupProb {
				net.addGroup(rng, c.Kind, c.Members, 1.0)
			}
			// Sub-team groups give colleagues their Fig. 2 lead in
			// common-group counts.
			subs := poisson(rng, cfg.WorkSubGroups)
			for s := 0; s < subs; s++ {
				net.addGroup(rng, c.Kind, c.Members, 0.3+rng.Float64()*0.4)
			}
		case KindHobby:
			if rng.Float64() < cfg.HobbyGroupProb {
				net.addGroup(rng, c.Kind, c.Members, 1.0)
			}
		default: // school stages
			if rng.Float64() < cfg.SchoolGroupProb {
				net.addGroup(rng, c.Kind, c.Members, 1.0)
			}
			// Dorm/study subgroups: schoolmates sharing >= 2 groups are
			// common in Fig. 2.
			if rng.Float64() < 0.6 {
				net.addGroup(rng, c.Kind, c.Members, 0.5+rng.Float64()*0.3)
			}
			if rng.Float64() < 0.3 {
				net.addGroup(rng, c.Kind, c.Members, 0.4+rng.Float64()*0.3)
			}
		}
	}
	// Mixed groups: random users, no type signal, never named indicatively.
	n := len(net.Profiles)
	mixed := int(cfg.MixedGroupsPerUser * float64(n) / 8)
	for i := 0; i < mixed; i++ {
		size := 4 + rng.Intn(12)
		members := make([]graph.NodeID, 0, size)
		seen := map[graph.NodeID]bool{}
		for len(members) < size {
			v := graph.NodeID(rng.Intn(n))
			if !seen[v] {
				seen[v] = true
				members = append(members, v)
			}
		}
		net.Groups = append(net.Groups, Group{Name: neutralNames[rng.Intn(len(neutralNames))], Kind: KindHobby, Members: members})
	}
	net.tabulateCommonGroups()
}

// addGroup creates one group from a circle, keeping each member with
// probability keep, occasionally adding an outsider, and naming it
// indicatively with probability NamedGroupProb.
func (net *Network) addGroup(rng *rand.Rand, kind CircleKind, circleMembers []graph.NodeID, keep float64) {
	members := make([]graph.NodeID, 0, len(circleMembers))
	for _, m := range circleMembers {
		if keep >= 1 || rng.Float64() < keep {
			members = append(members, m)
		}
	}
	if len(members) < 3 {
		return
	}
	// Outsider noise (drives Table II precision below 1).
	if rng.Float64() < 0.2 {
		v := graph.NodeID(rng.Intn(len(net.Profiles)))
		if !contains(members, v) {
			members = append(members, v)
		}
	}
	name := ""
	if rng.Float64() < net.Cfg.NamedGroupProb {
		name = indicativeName(rng, kind)
	} else if rng.Float64() < 0.3 {
		name = neutralNames[rng.Intn(len(neutralNames))]
	}
	net.Groups = append(net.Groups, Group{Name: name, Kind: kind, Members: members})
}

func indicativeName(rng *rand.Rand, kind CircleKind) string {
	sur := surnames[rng.Intn(len(surnames))]
	org := orgNames[rng.Intn(len(orgNames))]
	num := fmt.Sprintf("%d", 1+rng.Intn(12))
	switch kind {
	case KindFamily:
		return fmt.Sprintf(familyNamePatterns[rng.Intn(len(familyNamePatterns))], sur)
	case KindWorkCurrent, KindWorkPast:
		p := workNamePatterns[rng.Intn(len(workNamePatterns))]
		if p == "%s Company %s Dept" {
			return fmt.Sprintf(p, org, num)
		}
		return fmt.Sprintf(p, org)
	case KindSchoolPrimary, KindSchoolMiddle, KindSchoolUniversity:
		p := schoolNamePatterns[rng.Intn(len(schoolNamePatterns))]
		switch p {
		case "Class %s of %s Middle School":
			return fmt.Sprintf(p, num, org)
		case "%s University Class %s":
			return fmt.Sprintf(p, org, num)
		default:
			return fmt.Sprintf(p, num)
		}
	default:
		return neutralNames[rng.Intn(len(neutralNames))]
	}
}

// tabulateCommonGroups counts, for every friend pair, the chat groups
// containing both endpoints (Fig. 2's x-axis).
func (net *Network) tabulateCommonGroups() {
	counts := make(map[uint64]int)
	for _, g := range net.Groups {
		for i := 0; i < len(g.Members); i++ {
			for j := i + 1; j < len(g.Members); j++ {
				u, v := g.Members[i], g.Members[j]
				if net.Dataset.G.HasEdge(u, v) {
					counts[(graph.Edge{U: u, V: v}).Key()]++
				}
			}
		}
	}
	net.CommonGroups = counts
}
