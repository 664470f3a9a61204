// Package ads simulates the paper's social-advertising deployment study
// (Section V-E, Fig. 14). Advertisers provide seed users known to like a
// product; the system selects an audience among the seeds' friends and
// shows them the ad alongside their friends' likes/comments.
//
// Two audience strategies are compared under the same CTR scoring
// function: Relation simply takes the highest-scoring friends of seeds;
// LoCEC additionally requires the seed→friend edge to be classified as the
// ad category's affinity type (furniture → family members, mobile games →
// schoolmates). The outcome model makes users genuinely more responsive to
// ads socially endorsed by the right relationship type — the causal
// structure behind the paper's observed lift.
package ads

import (
	"math/rand"
	"sort"

	"locec/internal/graph"
	"locec/internal/social"
)

// Category is an advertisement vertical.
type Category int

// The two categories of Fig. 14.
const (
	Furniture Category = iota
	MobileGame
)

// String implements fmt.Stringer.
func (c Category) String() string {
	if c == MobileGame {
		return "MobileGame"
	}
	return "Furniture"
}

// AffinityType returns the relationship class whose endorsement lifts the
// category (the paper: furniture ads work on family members, game ads on
// schoolmates).
func (c Category) AffinityType() social.Label {
	if c == MobileGame {
		return social.Schoolmate
	}
	return social.Family
}

// Campaign configures one simulated ad campaign.
type Campaign struct {
	Category Category
	// Seeds is the number of advertiser-provided seed users.
	Seeds int
	// Audience is the impression budget (selected friends).
	Audience int
	// Seed drives the simulation RNG.
	Seed int64
}

// Outcome reports a campaign's measured rates in percent.
type Outcome struct {
	Method       string
	Impressions  int
	ClickRate    float64 // % of impressions clicked
	InteractRate float64 // % of impressions that liked/commented socially
}

// Simulator holds the shared world state for comparing strategies.
type Simulator struct {
	ds *social.Dataset
	// predicted maps edge key -> predicted label (from any classifier).
	predicted map[uint64]social.Label
	// ctrScore is a per-user base propensity, shared by both methods.
	ctrScore []float64
}

// NewSimulator builds a simulator over a classified dataset. The CTR
// scoring function is a deterministic per-user propensity (activity-driven
// plus noise) — identical for both strategies, as in the paper.
func NewSimulator(ds *social.Dataset, predicted map[uint64]social.Label, seed int64) *Simulator {
	rng := rand.New(rand.NewSource(seed))
	n := ds.G.NumNodes()
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		activity := 0.5
		if len(ds.UserFeatures[i]) >= 5 {
			activity = ds.UserFeatures[i][4]
		}
		scores[i] = 0.7*activity + 0.3*rng.Float64()
	}
	return &Simulator{ds: ds, predicted: predicted, ctrScore: scores}
}

// candidate is a potential audience member reached through a seed.
type candidate struct {
	user graph.NodeID
	via  graph.NodeID // the seed friend whose endorsement is shown
}

// Run simulates one campaign under both strategies and returns
// (LoCEC outcome, Relation outcome).
func (s *Simulator) Run(c Campaign) (locec, relation Outcome) {
	rng := rand.New(rand.NewSource(c.Seed))
	n := s.ds.G.NumNodes()
	// Advertiser seeds: random product-affine users.
	seedSet := make(map[graph.NodeID]bool, c.Seeds)
	for len(seedSet) < c.Seeds && len(seedSet) < n {
		seedSet[graph.NodeID(rng.Intn(n))] = true
	}
	// Candidate pool: friends of seeds (deduplicated, keeping the
	// highest-scoring seed link deterministically).
	byUser := make(map[graph.NodeID]candidate)
	for seed := range seedSet {
		for _, f := range s.ds.G.Neighbors(seed) {
			if seedSet[f] {
				continue
			}
			prev, ok := byUser[f]
			if !ok || seed < prev.via {
				byUser[f] = candidate{user: f, via: seed}
			}
		}
	}
	all := make([]candidate, 0, len(byUser))
	for _, cand := range byUser {
		all = append(all, cand)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].user < all[j].user })

	affinity := c.Category.AffinityType()
	var typed []candidate
	for _, cand := range all {
		k := (graph.Edge{U: cand.user, V: cand.via}).Key()
		if s.predicted[k] == affinity {
			typed = append(typed, cand)
		}
	}
	locecAud := s.topByScore(typed, c.Audience)
	relationAud := s.topByScore(all, c.Audience)

	locec = s.deliver("LoCEC-CNN", c, locecAud, rng)
	relation = s.deliver("Relation", c, relationAud, rng)
	return locec, relation
}

// topByScore picks the highest-CTR-score candidates.
func (s *Simulator) topByScore(cands []candidate, budget int) []candidate {
	sorted := append([]candidate(nil), cands...)
	sort.SliceStable(sorted, func(i, j int) bool {
		si, sj := s.ctrScore[sorted[i].user], s.ctrScore[sorted[j].user]
		if si != sj {
			return si > sj
		}
		return sorted[i].user < sorted[j].user
	})
	if budget < len(sorted) {
		sorted = sorted[:budget]
	}
	return sorted
}

// deliver shows the ad to the audience and samples outcomes. The TRUE edge
// type between viewer and endorsing seed drives the lift: a matching
// relationship multiplies click propensity and especially social
// interaction propensity.
func (s *Simulator) deliver(method string, c Campaign, audience []candidate, rng *rand.Rand) Outcome {
	affinity := c.Category.AffinityType()
	clicks, interacts := 0, 0
	for _, cand := range audience {
		k := (graph.Edge{U: cand.user, V: cand.via}).Key()
		truth := s.ds.TrueLabel(k)
		base := 0.010 * (0.5 + s.ctrScore[cand.user]) // ~1-1.5% organic CTR
		interactBase := 0.0020 * (0.5 + s.ctrScore[cand.user])
		if truth == affinity {
			base *= 2.2         // endorsements from the right circle get read
			interactBase *= 4.0 // and discussed
		}
		if rng.Float64() < base {
			clicks++
		}
		if rng.Float64() < interactBase {
			interacts++
		}
	}
	out := Outcome{Method: method, Impressions: len(audience)}
	if len(audience) > 0 {
		out.ClickRate = 100 * float64(clicks) / float64(len(audience))
		out.InteractRate = 100 * float64(interacts) / float64(len(audience))
	}
	return out
}
