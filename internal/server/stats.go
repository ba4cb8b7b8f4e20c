package server

import (
	"time"

	"repro/internal/relation"
)

// Stats snapshots the engine-lifetime accounting.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		Queries:       e.queries.Load(),
		Updates:       e.updates.Load(),
		UptimeSeconds: time.Since(e.started).Seconds(),
		Lifetime:      e.life.Snapshot(),
		Registry:      e.reg.Stats(),
	}
	if e.pdb != nil {
		ps := e.pdb.Stats()
		s.Persistence = &ps
	}
	s.Plans = e.plans.stats()
	e.stmtMu.Lock()
	s.Prepared = len(e.stmts)
	e.stmtMu.Unlock()
	// The installed-versions map (not the live stores) keeps the
	// inventory consistent with the db snapshot: an update whose merge
	// has finished but whose install has not yet happened is invisible
	// to both.
	e.verMu.Lock()
	db := e.db
	s.LiveVersions = e.epochs.pinned()
	versions := make(map[string]relation.Version, len(e.versions))
	for name, v := range e.versions {
		versions[name] = v
		s.LiveVersions++
		if v.Patched() {
			s.LiveVersions++ // the base version backing the patches
		}
	}
	e.verMu.Unlock()
	for _, name := range db.Names() {
		r, err := db.Get(name)
		if err != nil {
			continue
		}
		info := RelationInfo{Name: name, Arity: r.Arity(), Tuples: r.Len()}
		if v, ok := versions[name]; ok {
			info.Version = v.Num
			info.PendingDelta = v.DeltaSize()
		}
		s.Relations = append(s.Relations, info)
	}
	return s
}
