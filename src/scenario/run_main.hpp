/// \file
/// The wsnctl driver: its subcommands and their shared plumbing.
///
///   wsnctl list                         all registered scenarios
///   wsnctl help <name>                  flags of one scenario
///   wsnctl run <name> [flags...]        run and print (--format, --threads)
///
/// Every path validates flags against the scenario's declared vocabulary
/// (unknown flags are a hard error) and honors --help.
#pragma once

namespace wsn::scenario {

/// Entry point for `wsnctl`.
int WsnctlMain(int argc, const char* const* argv);

}  // namespace wsn::scenario
