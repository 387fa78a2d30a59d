#include "te/schedule.h"

#include <algorithm>
#include <stdexcept>

namespace mhla::te {

double bt_stall_cycles(const BlockTransfer& bt, TransferMode mode, const BtExtension* ext) {
  if (!bt.has_fill) return 0.0;  // fill-free: only the flush stream exists
  switch (mode) {
    case TransferMode::Blocking:
      return bt.total_cycles();
    case TransferMode::Ideal:
      return 0.0;
    case TransferMode::TimeExtended: {
      if (!ext) throw std::invalid_argument("bt_stall_cycles: TE mode needs an extension record");
      double residual = std::max(0.0, bt.cycles - ext->hidden_cycles);
      return residual * static_cast<double>(bt.issues) + ext->cold_start_stall_cycles;
    }
  }
  return 0.0;
}

double total_stall_cycles(const std::vector<BlockTransfer>& bts, TransferMode mode,
                          const TeResult* te) {
  double stall = 0.0;
  for (const BlockTransfer& bt : bts) {
    const BtExtension* ext = nullptr;
    if (mode == TransferMode::TimeExtended) {
      if (!te) throw std::invalid_argument("total_stall_cycles: TE mode needs a TeResult");
      ext = &te->for_bt(bt.id);
    }
    stall += bt_stall_cycles(bt, mode, ext);
    if (bt.write_back && mode != TransferMode::Ideal) {
      // Flushes cannot be prefetched; they block symmetrically to the fill.
      // The ideal bar of the paper hides *all* transfer time, flushes too.
      stall += bt.total_cycles();
    }
  }
  return stall;
}

double total_dma_busy_cycles(const std::vector<BlockTransfer>& bts) {
  double busy = 0.0;
  for (const BlockTransfer& bt : bts) {
    if (bt.has_fill) busy += bt.total_cycles();
    if (bt.write_back) busy += bt.total_cycles();
  }
  return busy;
}

}  // namespace mhla::te
