#pragma once

#include <string>
#include <vector>

#include "explore/explorer.h"

namespace mhla::xplore {

/// A batch exploration over a program corpus: the registry applications
/// (all nine by default) plus, optionally, seeded `gen::random_program`
/// instances — the same generator the fuzz tests and benches use, so a
/// seed names the same workload everywhere.
struct CorpusConfig {
  ExplorerConfig explorer;

  /// Registry app names; empty = every registered application.
  std::vector<std::string> apps;

  /// Extra generated programs, seeds `random_seed .. random_seed + n - 1`.
  int random_programs = 0;
  std::uint32_t random_seed = 1;
};

/// Exploration outcome of one corpus member.
struct CorpusEntry {
  std::string program;  ///< app name or "fuzz_<seed>"
  ExploreResult result;
};

/// Combined corpus report: per-program results plus the aggregate counters
/// (total pipeline evaluations and cache hits across the corpus).
struct CorpusResult {
  std::vector<CorpusEntry> entries;
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;
};

/// Explore every corpus member with one Explorer configuration.  Programs
/// run sequentially (each exploration parallelizes internally), sharing the
/// persistent result cache when `explorer.cache_path` is set, so repeated
/// corpus runs skip every previously evaluated cell.
CorpusResult explore_corpus(const CorpusConfig& config);

/// Same, against a caller-owned cache (no file I/O; `explorer.cache_path`
/// is ignored).  This is the distributed form: N workers or N servers each
/// drive a corpus against their own cache and converge by merging their
/// files (`merge_from`, `mhla_tool --cache-merge`).
CorpusResult explore_corpus(const CorpusConfig& config, ResultCache& cache);

/// Combined frontier report, one object per program.
std::string to_json(const CorpusResult& result, int indent = 0);

}  // namespace mhla::xplore
