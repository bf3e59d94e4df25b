// Application registry and experiment runner.
//
// The registry exposes the paper's eight applications by name, in the
// presentation order of Table III.  run_app() builds a fresh scaled
// testbed MemorySystem for the requested mode and emits the app's traffic
// on it — the core primitive every bench binary is built on.  It runs no
// numerics: only `nvmsim run` prints a checksum, and it asks App::host
// for it directly.
//
// Thread safety: the registry is const-after-init.  The app and name
// tables are function-local statics (thread-safe initialization) and are
// never mutated afterwards; App instances are stateless (host() and
// emit() are const and touch only their config and AppContext), so
// concurrent run_app()/run_app_on() calls from executor workers are safe.
// Call init_registry() (or any lookup) before fanning out to keep
// initialization off the hot path.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "appfw/app.hpp"
#include "obs/telemetry.hpp"

namespace nvms {

/// The paper's eight applications in Table III order (ascending
/// slowdown): hacc, laghos, scalapack, xsbench, hypre, superlu, boxlib,
/// ft.  Benches iterate this list.
const std::vector<std::string>& app_names();

/// Extra applications shipped beyond the paper's eight (synthetic
/// probes); runnable via lookup_app()/run_app() and the CLI.
const std::vector<std::string>& extra_app_names();

/// Force construction of the registry tables (idempotent).  Concurrent
/// first-use is already safe; this just front-loads the work before a
/// parallel section.
void init_registry();

/// Look up an app by name; throws ConfigError for unknown names.
const App& lookup_app(const std::string& name);

/// Build the scaled testbed and emit `name`'s traffic on it (App::emit):
/// the result's checksum is 0.
AppResult run_app(const std::string& name, Mode mode, const AppConfig& cfg);

/// As run_app, but with a caller-customized system configuration (the
/// mode field of `sys_cfg` is used as-is).  When `telemetry` is non-null
/// it is attached to the run's MemorySystem, collecting spans and epoch
/// metric streams for the whole execution.  When `resolve_cache` is
/// non-null it memoizes the run's DRAM-cache stream walks (results and
/// exports are byte-identical either way; see memsim/resolve_cache.hpp).
AppResult run_app_on(const std::string& name, SystemConfig sys_cfg,
                     const AppConfig& cfg, Telemetry* telemetry = nullptr,
                     ResolveCache* resolve_cache = nullptr);

}  // namespace nvms
