#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "assign/search.h"
#include "sim/report.h"

namespace mhla::core {

/// The hierarchy-independent analyses of one program: its access sites,
/// data reuse (copy candidates), array live ranges and dependences.  Built
/// once per program and shared read-only by every evaluation of it, at any
/// layer sizes and from any thread.  Borrows the program, which must
/// outlive it; non-movable, because the analyses point into `sites`.
class ProgramAnalysis {
 public:
  explicit ProgramAnalysis(const ir::Program& program);
  ProgramAnalysis(const ProgramAnalysis&) = delete;
  ProgramAnalysis& operator=(const ProgramAnalysis&) = delete;

  const ir::Program& program() const { return program_; }
  const std::vector<analysis::AccessSite>& sites() const { return sites_; }
  const analysis::ReuseAnalysis& reuse() const { return reuse_; }

  /// Borrowed view bundling the analyses with one platform for the
  /// assign/te/sim passes.
  assign::AssignContext context(const mem::Hierarchy& hierarchy,
                                const mem::DmaEngine& dma) const {
    return assign::AssignContext{program_, sites_, reuse_, live_, deps_, hierarchy, dma};
  }

 private:
  const ir::Program& program_;
  std::vector<analysis::AccessSite> sites_;
  analysis::ReuseAnalysis reuse_;
  std::map<std::string, analysis::LiveRange> live_;
  analysis::DependenceInfo deps_;
};

/// Owns one program, its analyses and one platform: everything a single
/// MHLA run needs.  Non-movable: the analyses hold pointers into the
/// program.
class Workspace {
 public:
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  const ir::Program& program() const { return program_; }
  const ProgramAnalysis& analysis() const { return analysis_; }
  const mem::Hierarchy& hierarchy() const { return hierarchy_; }
  const mem::DmaEngine& dma() const { return dma_; }
  const std::vector<analysis::AccessSite>& sites() const { return analysis_.sites(); }
  const analysis::ReuseAnalysis& reuse() const { return analysis_.reuse(); }

  /// Borrowed view bundling everything for the assign/te/sim passes.
  assign::AssignContext context() const { return analysis_.context(hierarchy_, dma_); }

 private:
  friend std::unique_ptr<Workspace> make_workspace(ir::Program, const mem::PlatformConfig&,
                                                   const mem::DmaEngine&);
  Workspace(ir::Program program, const mem::PlatformConfig& platform, const mem::DmaEngine& dma);

  ir::Program program_;
  ProgramAnalysis analysis_;
  mem::Hierarchy hierarchy_;
  mem::DmaEngine dma_;
};

/// Build a workspace: validates the program and runs all program-level
/// analyses once.
std::unique_ptr<Workspace> make_workspace(ir::Program program,
                                          const mem::PlatformConfig& platform = {},
                                          const mem::DmaEngine& dma = {});

}  // namespace mhla::core
