#pragma once

#include <string_view>

#include "core/prepared.h"
#include "obs/metrics.h"
#include "util/result.h"

/// Helpers shared by the engine implementations in core/ (leakage.cpp and
/// measure_family.cpp); not part of the public API.
namespace infoleak::engine_common {

/// `infoleak_leakage_evaluations_total{engine=…}`: every engine counts its
/// record evaluations under its own label.
obs::Counter& EngineEvalCounter(std::string_view engine);

/// Every engine output is the expectation of a statistic in [0, 1], so a
/// finite total may only leave that interval by floating-point rounding
/// (exact/naive, off by an ulp) or by Taylor truncation error (approx,
/// which can overshoot badly when Var[Y] dwarfs the denominator — see the
/// selfcheck corpus). Clamp back into range; a non-finite total means the
/// weights overflowed double range and there is no meaningful value to
/// clamp, so refuse instead of propagating NaN/Inf to callers.
Result<double> FinishUnitInterval(double total, const char* what);

/// Fills `ws->matched` (one flag per record attribute: does it match an
/// attribute of p?) from the view's precomputed match positions.
void FillMatchedFlags(const ColumnRecordView& r, LeakageWorkspace* ws);

}  // namespace infoleak::engine_common
