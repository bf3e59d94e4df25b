// Helper for assembling the common parts of an AppResult after a kernel
// finishes.
#pragma once

#include <string>

#include "appfw/app.hpp"

namespace nvms {

/// Fill runtime/counters/traces/samples/footprint/mode from the context.
/// The emitter sets fom/fom_unit/higher_is_better itself; App::run adds
/// the host checksum.
AppResult finalize_result(AppContext& ctx, std::string app_name);

}  // namespace nvms
