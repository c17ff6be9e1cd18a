package chaos

import (
	"time"

	"stordep/internal/hierarchy"
	"stordep/internal/sim"
)

// The Monte Carlo engine (internal/mc) checks every sampled trial
// against the same analytic worst-case bounds this package defends, so
// the two campaign engines can never drift on what "the bound" means —
// including which comparisons are skipped for the documented
// model-soundness gaps (see ROADMAP "Known model-soundness gaps").

// AnalyticBound returns the worst-case loss bound the model defends for
// level j at the given target age under the fault schedule. ok=false
// means the comparison must be skipped: target past retention, empty
// guaranteed range, or the covered band under an outage where degraded
// retention accounting is optimistic.
func AnalyticBound(chain hierarchy.Chain, outs []sim.Outage, j int, age time.Duration) (time.Duration, bool) {
	return analyticBound(chain, outs, j, age)
}

// AnalyticBoundReason is AnalyticBound with the skip reason named
// instead of folded into a boolean, so callers (and regression tests)
// can pin exactly which documented model-soundness gap scoped a
// comparison out.
func AnalyticBoundReason(chain hierarchy.Chain, outs []sim.Outage, j int, age time.Duration) (time.Duration, SkipReason) {
	return analyticBoundReason(chain, outs, j, age)
}

// EffectiveOutages converts a simulated fault schedule into analytic
// per-level outage totals, inflated by one cycle period per outage (and
// one transfer lag when in-flight transfers abort) — the conversion the
// loss-bound invariant uses.
func EffectiveOutages(chain hierarchy.Chain, outs []sim.Outage) []hierarchy.LevelOutage {
	return effectiveOutages(chain, outs)
}

// Quantize truncates to whole minutes with a one-minute floor — the
// resolution every schedule generator emits so repro files round-trip
// bit-identically through internal/config.
func Quantize(d time.Duration) time.Duration {
	return quantize(d)
}

// CeilMinute rounds up to the next whole minute.
func CeilMinute(d time.Duration) time.Duration {
	return ceilMinute(d)
}
