package repair

import (
	"repro/internal/model"
	"repro/internal/workload"
)

// ChangeDelta summarizes shipping placement to in place of from with every
// site up — the adaptive re-planning counterpart of a repair plan's delta.
// envOld is the environment the current plan was built from, envNew the
// re-estimated one; both must share from/to's site and object universe.
// Copies lists, per site, only the objects to stores there that from does
// not (each streams from the repository), so an unchanged placement yields
// no copies and zero CopyBytes — adaptation ships deltas, never a full
// re-copy. DHealthy is the old plan under the old estimates, DBefore the
// old plan under the new estimates (the staleness cost), DAfter the new
// plan under the new estimates. Like everything in this package the result
// is a pure function of its inputs.
func ChangeDelta(envOld, envNew *model.Env, from, to *model.Placement) Delta {
	w := envNew.W
	all := make([]workload.SiteID, w.NumSites())
	for i := range all {
		all[i] = workload.SiteID(i)
	}
	copies, bytes := copySets(w, from, to, all)
	after := model.Evaluate(envNew, to)
	return Delta{
		Copies:    copies,
		CopyBytes: bytes,
		DHealthy:  model.D(envOld, from),
		DBefore:   model.D(envNew, from),
		DAfter:    after.D,
		Feasible:  after.Feasible(),
	}
}
