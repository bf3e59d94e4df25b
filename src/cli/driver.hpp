// The nvmsim command-line driver (library part, so tests can call it).
//
// Commands:
//   list                              — registered applications
//   run <app> [--mode M] [--threads N] [--scale S] [--iters K]
//             [--trace FILE.csv] [--remote-nvm]
//   sweep <app> [--modes a,b,c] [--threads 12,24,36] [--scale S]
//   profile <app> [--threads N] [--scale S] [--budget PCT]
//   devices                           — calibrated device parameters
//
// Two frontends share the dispatch below: the one-shot CLI (cli_main,
// argv) and the nvmsimd daemon (serve/, JSON requests mapped onto the
// same Options accessors).  Both route through run_command*, so a query
// answered by the daemon produces byte-identical stdout to the same
// query run as a one-shot command.
#pragma once

#include <iosfwd>
#include <string>

namespace nvms {

class Options;
class ResolveCache;

/// Process-level context a long-running frontend threads through
/// run_command.  A null context reproduces the one-shot CLI exactly.
struct CommandContext {
  /// When non-null and the command asks for --resolve-cache=shared, this
  /// caller-owned process-lifetime cache is attached, so repeated daemon
  /// queries replay warm DRAM-cache trajectories.  It is the only cache a
  /// run or single-cell grid ever attaches (a lone run cannot hit its own
  /// inserts).  Memoization is semantically transparent: stdout stays
  /// byte-identical either way; only the stderr stream-memo line
  /// (cumulative for a shared cache) and the wall clock change.
  ResolveCache* shared_cache = nullptr;
  /// Epoch-kernel lanes granted to commands that run the simulator and
  /// did not pick --intra-jobs themselves; 0 = no grant (the CLI default
  /// of 1 lane).  Output bytes never depend on the width.
  int intra_jobs = 0;
};

/// Dispatch one parsed command.  Returns the exit code for handled
/// commands (0 ok, 2 usage) and throws ConfigError / Error for failures
/// detected below the option layer — use run_command_guarded for the
/// exit-code-only form.
int run_command(const std::string& cmd, const Options& opt,
                std::ostream& out, std::ostream& err,
                const CommandContext* ctx = nullptr);

/// run_command with the process error policy applied: ConfigError (bad
/// input) → "error: ..." on `err` + exit 2; any other Error (runtime
/// failure) → exit 1; any other std::exception → "internal error: ..."
/// + exit 1.  This is the safety net a resident daemon relies on — no
/// request may terminate the process via an uncaught exception.
int run_command_guarded(const std::string& cmd, const Options& opt,
                        std::ostream& out, std::ostream& err,
                        const CommandContext* ctx = nullptr);

/// Run the driver; returns a process exit code.  Output goes to `out`,
/// errors are reported on `err`.
int cli_main(int argc, char** argv, std::ostream& out, std::ostream& err);

}  // namespace nvms
