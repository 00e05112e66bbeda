/**
 * @file
 * Shared result-rendering helpers for the benchmark harnesses and
 * examples.
 */

#ifndef CARF_SIM_REPORTING_HH
#define CARF_SIM_REPORTING_HH

#include <optional>
#include <string>

#include "common/table.hh"
#include "core/core_stats.hh"
#include "core/params.hh"
#include "sim/experiments.hh"

namespace carf::sim
{

/** One-line human-readable configuration summary. */
std::string describeConfig(const core::CoreParams &params);

/** Per-workload IPC table for a suite run. */
Table suiteIpcTable(const std::string &title, const SuiteRun &run);

/** Render one run's headline numbers. */
std::string summarizeRun(const core::RunResult &result);

/**
 * JSON array of runResultJsonFull() objects (host times included) for
 * a whole suite run: the records of a BENCH_<name>.json report.
 */
std::string suiteRunJson(const SuiteRun &run);

/**
 * Full-fidelity JSON object for one run: every field of
 * core::forEachResultField(), in its order, with doubles printed at
 * %.17g so parsing recovers the exact bit pattern. The SMT and
 * sampling blocks appear only for multithreaded and sampled runs.
 * This is the one result record: the result-store value, the
 * carf_sweep NDJSON record and the BENCH report record.
 *
 * @param include_host_times emit the nondeterministic wall/trace/sim
 *        second fields (stored entries keep them; merged sweep output
 *        drops them so interrupted-and-resumed runs compare
 *        bit-identical to uninterrupted ones)
 */
std::string runResultJsonFull(const core::RunResult &result,
                              bool include_host_times = true);

/**
 * Parse a runResultJsonFull() object back into a RunResult.
 * Strict about the field order; the SMT, sampling and host-time
 * blocks are optional (absent fields keep their defaults). Returns nullopt on any malformed input —
 * the result store treats that as a corrupt line and skips it.
 */
std::optional<core::RunResult>
parseRunResultJson(std::string_view json);

/** JSON string literal (quotes and escapes @p s). */
std::string jsonString(const std::string &s);

/**
 * JSON object for a rendered Table:
 * {"title":..., "columns":[...], "rows":[[...],...]}. Cells are the
 * formatted strings the ASCII renderer prints, so a table serialized
 * from a jobs=1 run and a jobs=N run compare byte-identical.
 */
std::string tableJson(const Table &table);

} // namespace carf::sim

#endif // CARF_SIM_REPORTING_HH
