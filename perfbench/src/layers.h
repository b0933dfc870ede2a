// The per-layer ledger of a traced run: the benchmark's own timed calls into
// each module's public functions, replayed on seeded inputs.
//
// serde, wq and net are probed on the workload's own messages. A workload
// that bypasses pkg (echo-burst, py-short) has those probed on env-ship's
// environments for the same seed, and one that bypasses monitor, pysrc and
// chaos (echo-burst, env-ship) on py-short's module and calls; echo-burst,
// which ships no files, times file frames on env-ship's archives.
// perfbench/rationale.json names the end-to-end metric each one moves.
#pragma once

#include <string>

#include "stats.h"
#include "workload.h"

namespace lfmbench {

// Adds every serde.*, wq.*, net.*, pkg.*, monitor.*, pysrc.* and chaos.*
// metric to `report`. Each probe's timed repetitions are also recorded as
// "perfbench" spans on the global obs::Recorder. `tmpdir` holds the probed
// journal file.
void probe_layers(const Workload& workload, const std::string& tmpdir,
                  Report& report);

}  // namespace lfmbench
