package core

import "context"

// Session keeps a plan's caches alive across executions. The paper
// frames CLFTJ's caches as dynamically sized memory the operator may
// grant or reclaim at any time (§5.3.3, multi-tenancy); a Session is the
// corresponding API: repeated counts over the same plan reuse earlier
// intermediate results, so later runs probe warm caches, and the
// capacity bound applies to the session as a whole.
type Session struct {
	plan   *Plan
	policy Policy
	// cm is the session's own: taken like any execution's manager but
	// never released, so its tables are reclaimed with the session. It is
	// nil when the session caches nothing (acquireManager).
	cm *manager[int64]
}

// NewSession returns a counting session with empty caches under the
// given policy. Session counts are sequential (one set of caches, one
// worker): policy.Workers is not consulted.
func (p *Plan) NewSession(policy Policy) *Session {
	policy.Workers = 1
	return &Session{
		plan:   p,
		policy: policy,
		cm:     acquireManager[int64](policy, p, p.counters, nil),
	}
}

// Count runs CachedTJCount reusing the session's caches.
func (s *Session) Count() CountResult {
	res, _ := s.plan.count(context.Background(), s.policy, s.cm)
	return res
}

// CachedEntries reports the intermediate results currently resident.
func (s *Session) CachedEntries() int { return s.cm.Entries() }

// Shrink reduces the resident cache to at most maxEntries, evicting in
// the policy's eviction order — the "dynamically adjust the size of the
// cache" knob from the paper's abstract. It reports the resulting size.
// Support counts (Policy.SupportThreshold) are not entries: they stay.
func (s *Session) Shrink(maxEntries int) int {
	if s.cm != nil {
		s.cm.evictUntil(max(maxEntries, 0))
	}
	return s.cm.Entries()
}
