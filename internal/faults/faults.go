// Package faults is a deterministic, seedable fault-injection substrate
// for the engine's three I/O boundaries: the cluster client's HTTP
// transport, the store's file operations, and the trie registry's byte
// budget. Production code threads an optional *Injector through those
// sites and consults it unconditionally — every method is safe on a nil
// receiver and a nil injector costs one pointer compare per site — so
// the fault paths exercised in tests are the exact code paths that run
// in production, not test doubles.
//
// Determinism contract: whether a rule fires at a site is a pure
// function of (seed, site, n) where n is the per-(rule, site) call
// ordinal. Two runs that issue the same call sequence per site make the
// same decisions, regardless of how unrelated sites interleave, so a
// chaos run is reproducible from its seed alone (the soak test prints
// the seed on failure and accepts it back via -faults-seed).
package faults

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Kind is the shape of one injected fault.
type Kind string

const (
	// KindFail fails the operation before it happens: a dropped HTTP
	// request (the server never sees it), a failed fsync or rename.
	KindFail Kind = "fail"
	// KindDelay stalls the operation by Rule.Delay, then lets it
	// proceed — the straggler/hedging case.
	KindDelay Kind = "delay"
	// KindReset (transport only) performs the request but discards the
	// response and fails — the connection-reset-after-send case, the
	// ambiguous failure where the server may have acted.
	KindReset Kind = "reset"
	// KindTruncate (transport only) cuts the response body short after
	// Rule.Bytes bytes — a stream dying mid-flight.
	KindTruncate Kind = "truncate"
	// KindShort (file writes only) persists the first Rule.Bytes bytes,
	// then fails — a torn append.
	KindShort Kind = "short"
)

// Rule arms faults at the sites its glob matches.
type Rule struct {
	// Site is a '/'-separated glob over site names; "*" matches exactly
	// one segment ("store/*.wal/sync" matches every relation's WAL
	// fsync, "transport/*/query" every shard's buffered queries).
	Site string
	// Kind selects the fault shape (KindFail when empty).
	Kind Kind
	// Nth, when positive, fires on exactly the Nth matching call at
	// each site (1-based) and never otherwise. When zero, every
	// matching call fires with probability P.
	Nth int64
	// P is the per-call fire probability when Nth is zero. P >= 1
	// fires always; P <= 0 with Nth == 0 never fires (a disarmed rule).
	P float64
	// Limit caps the rule's total fires across all sites (0 =
	// unlimited) — "fail the next fsync, once".
	Limit int64
	// Delay is the stall for KindDelay.
	Delay time.Duration
	// Bytes parameterizes KindTruncate / KindShort (how much of the
	// body / buffer survives). Zero truncates to nothing.
	Bytes int
	// Err overrides the injected error (a default naming the site and
	// kind is synthesized when nil).
	Err error
}

// Outcome is one fired fault at one site.
type Outcome struct {
	Site  string
	Kind  Kind
	Delay time.Duration
	Bytes int
	Err   error
}

// rule is one armed Rule plus its mutable state.
type rule struct {
	Rule
	segs  []string
	calls map[string]int64 // per-site call ordinals
	fires int64
}

// Injector schedules faults deterministically from a seed. All methods
// are safe for concurrent use and on a nil receiver (no faults armed).
type Injector struct {
	seed uint64

	mu    sync.Mutex
	rules []*rule
}

// New returns an injector whose decisions derive from seed. Only tests
// build one: this package's, the cluster chaos and fault-tolerance
// tests (chaos_test.go, faulttolerance_test.go) and the server's
// read-only tests (readonly_test.go); production code passes nil.
func New(seed uint64) *Injector {
	return &Injector{seed: seed}
}

// Seed returns the injector's seed (printed by failing chaos runs).
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Add arms one rule and returns the injector for chaining.
func (in *Injector) Add(r Rule) *Injector {
	if r.Kind == "" {
		r.Kind = KindFail
	}
	in.mu.Lock()
	in.rules = append(in.rules, &rule{
		Rule:  r,
		segs:  strings.Split(r.Site, "/"),
		calls: make(map[string]int64),
	})
	in.mu.Unlock()
	return in
}

// Fire consults the schedule at one site: nil means proceed normally,
// otherwise the returned outcome describes the fault to realize. The
// first armed rule whose glob matches decides; every matching rule's
// call ordinal advances either way, so disarming one rule does not
// shift another's schedule.
func (in *Injector) Fire(site string) *Outcome {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var hit *rule
	for _, r := range in.rules {
		if !matchSite(r.segs, site) {
			continue
		}
		n := r.calls[site] + 1
		r.calls[site] = n
		if hit != nil {
			continue // ordinals advance, but the first match decided
		}
		if r.Limit > 0 && r.fires >= r.Limit {
			continue
		}
		fire := false
		if r.Nth > 0 {
			fire = n == r.Nth
		} else if r.P > 0 {
			fire = r.P >= 1 || decide(in.seed, site, n) < r.P
		}
		if fire {
			hit = r
		}
	}
	if hit == nil {
		return nil
	}
	hit.fires++
	err := hit.Err
	if err == nil {
		err = fmt.Errorf("faults: injected %s at %s", hit.Kind, site)
	}
	return &Outcome{Site: site, Kind: hit.Kind, Delay: hit.Delay, Bytes: hit.Bytes, Err: err}
}

// Check is Fire for sites whose only meaningful faults are errors: it
// realizes KindDelay inline (sleeps) and returns the injected error for
// every other kind, or nil.
func (in *Injector) Check(site string) error {
	o := in.Fire(site)
	if o == nil {
		return nil
	}
	if o.Kind == KindDelay {
		time.Sleep(o.Delay)
		return nil
	}
	return o.Err
}

// WriteLen is the file-write site helper: it returns how many of full
// bytes the caller should actually write and the error to return. A
// clean site writes everything with no error; KindShort persists a
// prefix (a torn tail for recovery to find) and fails; KindFail writes
// nothing and fails.
func (in *Injector) WriteLen(site string, full int) (int, error) {
	o := in.Fire(site)
	if o == nil {
		return full, nil
	}
	switch o.Kind {
	case KindDelay:
		time.Sleep(o.Delay)
		return full, nil
	case KindShort:
		return min(o.Bytes, full), o.Err
	default:
		return 0, o.Err
	}
}

// matchSite matches a '/'-separated glob against a site: "*" matches
// one whole segment, everything else is literal, and segment counts
// must agree.
func matchSite(glob []string, site string) bool {
	rest := site
	for i, g := range glob {
		var seg string
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			seg, rest = rest[:j], rest[j+1:]
		} else {
			seg, rest = rest, ""
			if i != len(glob)-1 {
				return false
			}
		}
		if g != "*" && g != seg {
			return false
		}
	}
	return rest == ""
}

// decide maps (seed, site, n) to a uniform float in [0, 1) via one
// splitmix64 round over the mixed inputs — the same finalizer the
// cluster partitioner pins for its wire contract, reused here purely
// for its avalanche quality.
func decide(seed uint64, site string, n int64) float64 {
	x := seed ^ fnv64(site) ^ uint64(n)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// fnv64 is FNV-1a over the site name.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
