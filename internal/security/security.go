// Package security implements FARMER-enabled security (paper §4.3): when a
// user configures a rule-based access policy on a file, the rule propagates
// automatically to files strongly correlated with it, including transitive
// propagation with degree decay, plus correlation-aware secure delete.
package security

import (
	"fmt"
	"sort"
	"sync"

	"farmer/internal/core"
	"farmer/internal/trace"
)

// Action is the access class a rule governs.
type Action uint8

// Rule actions.
const (
	ActionRead Action = iota
	ActionWrite
	ActionDelete
)

var actionNames = [...]string{"read", "write", "delete"}

// String returns the action name.
func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return "action?"
}

// Effect is allow or deny.
type Effect uint8

// Rule effects. Deny dominates when rules conflict.
const (
	Allow Effect = iota
	Deny
)

// String returns "allow" or "deny".
func (e Effect) String() string {
	if e == Deny {
		return "deny"
	}
	return "allow"
}

// Rule is one access-control entry.
type Rule struct {
	Principal uint32 // user id the rule applies to
	Action    Action
	Effect    Effect
	// Propagated marks rules installed by correlation propagation rather
	// than directly by an administrator.
	Propagated bool
	// Strength is the correlation degree along the propagation path (1.0
	// for directly-installed rules).
	Strength float64
}

// Config tunes propagation.
type Config struct {
	// MinStrength stops propagation when the path degree product drops
	// below this bound.
	MinStrength float64
	// MaxHops bounds transitive propagation depth.
	MaxHops int
}

// DefaultConfig propagates across one or two strong hops.
func DefaultConfig() Config { return Config{MinStrength: 0.5, MaxHops: 2} }

// Manager holds rules and propagates them along mined correlations.
type Manager struct {
	cfg   Config
	model *core.Model

	mu    sync.RWMutex
	rules map[trace.FileID][]Rule
}

// NewManager builds a manager over a mined model.
func NewManager(model *core.Model, cfg Config) (*Manager, error) {
	if model == nil {
		return nil, fmt.Errorf("security: nil model")
	}
	if cfg.MinStrength <= 0 || cfg.MinStrength > 1 {
		return nil, fmt.Errorf("security: MinStrength %v outside (0,1]", cfg.MinStrength)
	}
	if cfg.MaxHops < 0 {
		return nil, fmt.Errorf("security: negative MaxHops")
	}
	return &Manager{cfg: cfg, model: model, rules: make(map[trace.FileID][]Rule)}, nil
}

// Install sets a rule on a file and propagates it to correlated files whose
// path degree product stays at or above MinStrength, up to MaxHops away.
// It returns the files (excluding the root) that received a propagated rule.
func (m *Manager) Install(f trace.FileID, r Rule) []trace.FileID {
	r.Propagated = false
	r.Strength = 1.0
	m.mu.Lock()
	defer m.mu.Unlock()
	m.addRule(f, r)

	var reached []trace.FileID
	visited := map[trace.FileID]bool{f: true}
	type frontier struct {
		f        trace.FileID
		strength float64
	}
	queue := []frontier{{f, 1.0}}
	for hop := 0; hop < m.cfg.MaxHops; hop++ {
		var next []frontier
		for _, cur := range queue {
			for _, c := range m.model.CorrelatorList(cur.f) {
				s := cur.strength * c.Degree
				if s < m.cfg.MinStrength || visited[c.File] {
					continue
				}
				visited[c.File] = true
				pr := r
				pr.Propagated = true
				pr.Strength = s
				m.addRule(c.File, pr)
				reached = append(reached, c.File)
				next = append(next, frontier{c.File, s})
			}
		}
		queue = next
	}
	sort.Slice(reached, func(i, j int) bool { return reached[i] < reached[j] })
	return reached
}

// addRule appends holding m.mu; an exact duplicate (principal+action)
// keeps the stronger entry, with direct rules dominating propagated ones.
func (m *Manager) addRule(f trace.FileID, r Rule) {
	rules := m.rules[f]
	for i := range rules {
		if rules[i].Principal == r.Principal && rules[i].Action == r.Action && rules[i].Effect == r.Effect {
			if !r.Propagated || (rules[i].Propagated && r.Strength > rules[i].Strength) {
				rules[i] = r
			}
			return
		}
	}
	m.rules[f] = append(rules, r)
}

// Allowed evaluates an access: deny rules dominate; with no matching rule
// the default is allow (open policy, matching HUSt's default).
func (m *Manager) Allowed(f trace.FileID, principal uint32, a Action) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	allowed := true
	for _, r := range m.rules[f] {
		if r.Principal != principal || r.Action != a {
			continue
		}
		if r.Effect == Deny {
			return false
		}
		allowed = true
	}
	return allowed
}

// SecureDeleteSet returns the correlation closure that a secure delete of f
// should scrub together (paper: "secured delete" over correlated files):
// f plus every file reachable with path degree >= MinStrength.
func (m *Manager) SecureDeleteSet(f trace.FileID) []trace.FileID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	visited := map[trace.FileID]bool{f: true}
	queue := []trace.FileID{f}
	strength := map[trace.FileID]float64{f: 1.0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range m.model.CorrelatorList(cur) {
			s := strength[cur] * c.Degree
			if s < m.cfg.MinStrength || visited[c.File] {
				continue
			}
			visited[c.File] = true
			strength[c.File] = s
			queue = append(queue, c.File)
		}
	}
	out := make([]trace.FileID, 0, len(visited))
	for id := range visited {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
