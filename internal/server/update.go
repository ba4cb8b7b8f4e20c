package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/relation"
	"repro/internal/stats"
)

// ReadOnlyState describes why and when an engine stopped accepting
// updates (see Engine.ReadOnly).
type ReadOnlyState struct {
	// Reason is the durability failure that flipped the engine.
	Reason string `json:"reason"`
	// Since is when it flipped.
	Since time.Time `json:"since"`
}

// ErrReadOnly marks an update refused because a durability failure put
// the engine in read-only mode. HTTP maps it to 503.
var ErrReadOnly = errors.New("server: engine is read-only after a persistence failure")

// ReadOnly reports the engine's degraded state: nil while updates are
// accepted, else the durability failure that flipped it.
func (e *Engine) ReadOnly() *ReadOnlyState { return e.readOnly.Load() }

// Update applies one delta to a relation and installs the new version:
// queries that already took their snapshot keep answering from the old
// version (pinned by epoch tracking until they drain), queries entering
// afterwards see the new one, and the shared registry derives the new
// version's indices by copy-on-write patches while the delta stays
// under the compaction crossover. Safe to call concurrently with
// queries and other updates.
func (e *Engine) Update(req UpdateRequest) (*UpdateResult, error) {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	if rs := e.readOnly.Load(); rs != nil {
		return nil, fmt.Errorf("%w (since %s: %s)", ErrReadOnly, rs.Since.Format(time.RFC3339), rs.Reason)
	}
	st, ok := e.stores[req.Relation]
	if !ok {
		return nil, fmt.Errorf("server: no relation %q to update", req.Relation)
	}
	// The merge runs outside verMu: queries keep entering against the
	// old snapshot while it proceeds (stores is never mutated after
	// construction, and updateMu orders this merge with the install
	// below).
	old := st.Version()
	v, changed, err := st.ApplyDelta(req.Inserts, req.Deletes)
	if err != nil {
		return nil, err
	}
	// A compaction is the base moving. !v.Patched() is not the test: a
	// delta that lands back on the base's content reads that way too,
	// with the base — and every index resident for it — still in place.
	compacted := old.Base != v.Base
	var reclaim []*relation.Relation
	if changed {
		// Durability before visibility: the delta is fsync'd (or, past
		// the compaction crossover, the fresh snapshot is renamed into
		// place) before the new version is installed for queries, so an
		// acknowledged update always survives a restart. A persistence
		// failure flips the engine read-only: the failed write left the
		// log in an unknown state, so accepting further updates could
		// diverge memory from disk silently. The un-persisted version is
		// never installed — queries keep answering from the last durable
		// snapshot, which is exactly what a restart would recover.
		if e.pdb != nil {
			var perr error
			if compacted {
				perr = e.pdb.SaveRelation(req.Relation, v.Rel, v.Num)
			} else {
				perr = e.pdb.AppendDelta(req.Relation, v.Num, req.Inserts, req.Deletes)
			}
			if perr != nil {
				e.readOnly.CompareAndSwap(nil, &ReadOnlyState{Reason: perr.Error(), Since: time.Now()})
				return nil, fmt.Errorf("%w: update not persisted: %s", ErrReadOnly, perr)
			}
		}
		e.reg.Observe(v)
		ndb := relation.NewDB()
		for _, name := range e.db.Names() {
			if r, err := e.db.Get(name); err == nil {
				ndb.Put(r)
			}
		}
		ndb.Put(v.Rel)
		e.verMu.Lock()
		e.db = ndb
		e.versions[req.Relation] = v
		// Retire what the new version superseded — but never its own
		// base: the base version's resident indices are the substrate
		// every copy-on-write patch shares, so they stay until a
		// compaction replaces the base itself.
		if old.Rel != v.Base {
			reclaim = append(reclaim, e.epochs.retire(old.Rel)...)
		}
		if old.Base != v.Base && old.Base != old.Rel {
			reclaim = append(reclaim, e.epochs.retire(old.Base)...)
		}
		// Release the bindings this delta staled: a binding pins tries of
		// the superseded version, so resident memory under continuous
		// updates must not wait for the next read of each plan. It happens before verMu
		// releases, so every query admitted afterwards finds the entries
		// already advanced to this version (verMu → planCache.mu nests
		// here; no other path holds them together).
		e.plans.invalidateTouching(req.Relation, v.Num)
		e.verMu.Unlock()
	}
	e.release(reclaim)

	if changed {
		e.updates.Add(1)
		e.life.Merge(&stats.Counters{DeltaApplies: 1})
	}
	return &UpdateResult{
		Relation:     req.Relation,
		Version:      v.Num,
		Tuples:       v.Rel.Len(),
		Applied:      changed,
		Compacted:    compacted,
		PendingDelta: v.DeltaSize(),
	}, nil
}
