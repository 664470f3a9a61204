package locec

import (
	"locec/internal/social"
	"locec/internal/wechat"
)

// SynthConfig controls the synthetic WeChat-like network generator — the
// substitution for the paper's proprietary trace (see DESIGN.md).
type SynthConfig struct {
	// Users is the population size (minimum 20).
	Users int
	// Seed makes generation deterministic.
	Seed int64
}

// SynthNetwork is a generated network: the learner-facing Dataset plus the
// generator-side ground structure (circles, chat groups, survey machinery).
type SynthNetwork struct {
	// Dataset is the learner-facing problem instance.
	Dataset *social.Dataset
	net     *wechat.Network
}

// Synthesize generates a WeChat-like network with planted social circles,
// sparse type-dependent interactions and chat groups.
func Synthesize(cfg SynthConfig) (*SynthNetwork, error) {
	net, err := wechat.Generate(wechat.DefaultConfig(cfg.Users, cfg.Seed))
	if err != nil {
		return nil, err
	}
	return &SynthNetwork{Dataset: net.Dataset, net: net}, nil
}

// RevealSurvey simulates the paper's user survey, revealing ground-truth
// labels for approximately the given fraction of edges, clustered around
// surveyed users.
func (s *SynthNetwork) RevealSurvey(fraction float64, seed int64) {
	s.net.RunSurvey(fraction, seed)
}

// TrueLabel returns the generator's ground-truth label for {u,v}
// (Unlabeled if the edge does not exist).
func (s *SynthNetwork) TrueLabel(u, v NodeID) Label {
	if l, ok := s.Dataset.LookupTrueLabel(edgeKey(u, v)); ok {
		return l
	}
	return Unlabeled
}

// Internal exposes the full generator output (circles, groups, survey
// records) for analysis tooling.
func (s *SynthNetwork) Internal() *wechat.Network { return s.net }
