#include "harness/registry.hpp"

#include <map>

#include "dwarfs/dense/scalapack.hpp"
#include "dwarfs/laghos/laghos.hpp"
#include "dwarfs/mc/xsbench.hpp"
#include "dwarfs/nbody/hacc.hpp"
#include "dwarfs/sgrid/hypre.hpp"
#include "dwarfs/sparse/superlu.hpp"
#include "dwarfs/synth/gups.hpp"
#include "dwarfs/synth/stream.hpp"
#include "dwarfs/spectral/ft.hpp"
#include "dwarfs/ugrid/boxlib.hpp"
#include "simcore/error.hpp"

namespace nvms {
namespace {

// Const-after-init: built once under the C++11 static-initialization
// guarantee and never mutated, so lock-free concurrent lookups are safe.
const std::vector<std::unique_ptr<App>>& all_apps() {
  static const auto apps = [] {
    std::vector<std::unique_ptr<App>> v;
    v.push_back(std::make_unique<HaccApp>());
    v.push_back(std::make_unique<LaghosApp>());
    v.push_back(std::make_unique<ScalapackApp>());
    v.push_back(std::make_unique<XsBenchApp>());
    v.push_back(std::make_unique<HypreApp>());
    v.push_back(std::make_unique<SuperLuApp>());
    v.push_back(std::make_unique<BoxLibApp>());
    v.push_back(std::make_unique<FtApp>());
    // extras beyond the paper's eight follow
    v.push_back(std::make_unique<StreamApp>());
    v.push_back(std::make_unique<GupsApp>());
    return v;
  }();
  return apps;
}

}  // namespace

namespace {
constexpr std::size_t kPaperApps = 8;
}

const std::vector<std::string>& app_names() {
  static const auto names = [] {
    std::vector<std::string> v;
    for (std::size_t i = 0; i < kPaperApps; ++i)
      v.push_back(all_apps()[i]->name());
    return v;
  }();
  return names;
}

const std::vector<std::string>& extra_app_names() {
  static const auto names = [] {
    std::vector<std::string> v;
    for (std::size_t i = kPaperApps; i < all_apps().size(); ++i)
      v.push_back(all_apps()[i]->name());
    return v;
  }();
  return names;
}

void init_registry() {
  (void)all_apps();
  (void)app_names();
  (void)extra_app_names();
}

const App& lookup_app(const std::string& name) {
  for (const auto& a : all_apps()) {
    if (a->name() == name) return *a;
  }
  throw ConfigError("unknown app '" + name + "'");
}

AppResult run_app(const std::string& name, Mode mode, const AppConfig& cfg) {
  return run_app_on(name, SystemConfig::testbed(mode), cfg);
}

AppResult run_app_on(const std::string& name, SystemConfig sys_cfg,
                     const AppConfig& cfg, Telemetry* telemetry,
                     ResolveCache* resolve_cache) {
  MemorySystem sys(std::move(sys_cfg));
  if (telemetry != nullptr) sys.set_telemetry(telemetry);
  if (resolve_cache != nullptr) sys.set_resolve_cache(resolve_cache);
  AppContext ctx(sys, cfg);
  return lookup_app(name).emit(ctx);
}

}  // namespace nvms
