package cluster

import (
	"sync"
	"time"
)

// defaultBreakerThreshold is how many consecutive transport failures
// open an endpoint's circuit.
const defaultBreakerThreshold = 5

// defaultBreakerCooldown is how long an open circuit rejects requests
// before admitting one half-open probe.
const defaultBreakerCooldown = time.Second

// breaker is a per-endpoint circuit breaker over transport outcomes.
// Closed admits everything; Threshold consecutive transport failures
// open it, and an open circuit fails requests fast (ErrBreakerOpen)
// instead of stacking timeouts on a dead endpoint. After Cooldown, one
// request is admitted as a half-open probe: its success closes the
// circuit, its failure re-opens it for another cooldown.
//
// "Failure" means a transport failure only — an endpoint that answers
// any HTTP status, even a 5xx, is alive and keeps its circuit closed —
// and a request whose own caller gave up mid-call (cancelled, hedged
// away, out of its deadline) is neither: it is forgotten, not recorded.
// Safe for concurrent use.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu          sync.Mutex
	state       string // "closed", "open", "half_open"
	consecutive int
	openedAt    time.Time
	opens       int64
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	return &breaker{threshold: threshold, cooldown: cooldown, state: "closed"}
}

// allow reports whether a request may proceed. In the open state it
// admits exactly one probe per cooldown window (flipping to half_open);
// in half_open it rejects everything until the in-flight probe records.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case "open":
		if time.Since(b.openedAt) >= b.cooldown {
			b.state = "half_open"
			return true
		}
		return false
	case "half_open":
		return false
	default:
		return true
	}
}

// record feeds one transport outcome back. ok is "the endpoint
// answered" (any HTTP status), not "the request succeeded".
func (b *breaker) record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = "closed"
		b.consecutive = 0
		return
	}
	b.consecutive++
	if b.state == "half_open" || (b.state == "closed" && b.consecutive >= b.threshold) {
		b.state = "open"
		b.openedAt = time.Now()
		b.opens++
	}
}

// forget ends an admitted request with no verdict on the endpoint — its
// caller gave up before it answered or failed. The failure run stands as
// it was; a half-open circuit goes back to open with its cooldown already
// served, so the next request is the probe instead of the circuit waiting
// on one that will never record.
func (b *breaker) forget() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == "half_open" {
		b.state = "open"
	}
}

// BreakerState is one endpoint circuit's observable state, served in
// the coordinator's GET /stats and /healthz.
type BreakerState struct {
	// Endpoint is the shard endpoint the circuit guards.
	Endpoint string `json:"endpoint"`
	// State is "closed", "open" or "half_open".
	State string `json:"state"`
	// ConsecutiveFailures is the current transport-failure run.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Opens counts closed/half-open -> open transitions over the
	// client's lifetime.
	Opens int64 `json:"opens"`
}

func (b *breaker) snapshot(endpoint string) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerState{
		Endpoint:            endpoint,
		State:               b.state,
		ConsecutiveFailures: b.consecutive,
		Opens:               b.opens,
	}
}

// BreakerStater is implemented by shards that guard endpoints with
// circuit breakers (Client, ReplicaSet); the coordinator type-asserts
// it when assembling /stats and /healthz.
type BreakerStater interface {
	BreakerStates() []BreakerState
}
