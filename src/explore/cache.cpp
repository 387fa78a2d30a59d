#include "explore/cache.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "core/fault_injector.h"
#include "core/json.h"
#include "core/json_report.h"

namespace mhla::xplore {

namespace {

std::string hex_key(std::uint64_t key) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << std::hex << std::setw(16) << std::setfill('0') << key;
  return out.str();
}

std::uint64_t parse_hex_key(const std::string& text) {
  if (text.size() != 16 || text.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw std::invalid_argument("cache key '" + text + "' is not 16 lowercase hex digits");
  }
  return std::stoull(text, nullptr, 16);
}

/// One cache entry from its JSON object — shared by the well-formed document
/// path and the line-by-line salvage scanner, so both accept
/// exactly the same entries.  Throws on any missing/mistyped field.  The
/// "status" field is optional for backward compatibility: documents written
/// before it existed only ever contained completed results, so they load as
/// Feasible.
std::pair<std::uint64_t, CacheEntry> entry_from_json(const core::Json& item) {
  CacheEntry entry;
  entry.l1_bytes = item.at("l1_bytes").integer();
  entry.l2_bytes = item.at("l2_bytes").integer();
  entry.strategy = item.at("strategy").string();
  entry.with_te = item.at("with_te").boolean();
  entry.cycles = item.at("cycles").number();
  entry.energy_nj = item.at("energy_nj").number();
  if (const core::Json* status = item.find("status")) {
    entry.status = assign::parse_search_status(status->string());
  }
  return {parse_hex_key(item.at("key").string()), std::move(entry)};
}

/// fsync `path`, a file or a directory; false when the platform reports
/// the flush failed (no-op success on Windows).
bool sync_path(const std::string& path) {
#ifndef _WIN32
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

/// Finalizer mix (splitmix64 tail): cache keys are already FNV hashes, but
/// the mix keeps any externally supplied key set from piling onto one stripe.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

using EntryMap = std::map<std::uint64_t, CacheEntry>;

/// Record one parsed entry the way the cache would: cacheable entries only,
/// last write wins.
void keep(EntryMap& loaded, std::pair<std::uint64_t, CacheEntry> item) {
  if (cacheable(item.second)) loaded[item.first] = std::move(item.second);
}

/// The entries of a well-formed document; throws on anything else.
EntryMap parse_document(const std::string& text) {
  core::Json document = core::Json::parse(text);
  std::int64_t version = document.at("version").integer();
  if (version != 1) {
    throw std::invalid_argument("unsupported cache version " + std::to_string(version));
  }
  EntryMap loaded;
  for (const core::Json& item : document.at("entries").array()) keep(loaded, entry_from_json(item));
  return loaded;
}

/// The salvage pass.  save() emits one entry object per line, so every line
/// that parses as a complete {"key": ...} object is a trustworthy entry
/// regardless of what happened to the document around it (truncation,
/// interleaved writes, a mangled header).  Anything else is skipped.
EntryMap salvage_lines(const std::string& text) {
  EntryMap loaded;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::size_t open = line.find('{');
    std::size_t close = line.rfind('}');
    if (open == std::string::npos || close == std::string::npos || close <= open) continue;
    if (line.find("\"key\"") == std::string::npos) continue;
    try {
      keep(loaded, entry_from_json(core::Json::parse(line.substr(open, close - open + 1))));
    } catch (const std::exception&) {
      continue;  // damaged entry — skip it, keep scanning
    }
  }
  return loaded;
}

/// Write `text` to `path` via temp file + fsync + atomic rename: an
/// interrupted or failed write must not truncate away the previously
/// accumulated entries (the same hazard load() refuses to run into on an
/// unreadable file).  The temp name mixes a random draw with the thread id
/// and the clock — std::random_device alone may be deterministic on some
/// platforms — so concurrent saves to one path cannot interleave inside a
/// single temp file; last rename wins atomically.
void write_atomically(const std::string& path, const std::string& text) {
  std::uint64_t nonce = std::random_device{}();
  nonce = nonce * 0x9e3779b97f4a7c15ULL ^
          static_cast<std::uint64_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  nonce ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  const std::string tmp = path + ".tmp." + std::to_string(nonce);
  auto fail = [&](const std::string& what) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw std::runtime_error(what);
  };

  // Fault-injection sites (core::FaultInjector::Site::IoWrite) bracket the
  // three steps that can die for real — open, write+flush, rename — so the
  // crash-consistency tests can kill the save at each one and assert the
  // previously persisted document survived untouched.
  using core::FaultInjector;
  if (FaultInjector::fire(FaultInjector::Site::IoWrite)) {
    throw std::runtime_error("injected I/O fault opening result cache temp '" + tmp + "'");
  }
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write result cache '" + tmp + "'");
    out << text << "\n";
    out.flush();
    if (FaultInjector::fire(FaultInjector::Site::IoWrite)) {
      fail("injected I/O fault writing result cache temp '" + tmp + "'");
    }
    if (!out) fail("failed writing result cache '" + tmp + "'");
  }
  // Flush the data before the rename: otherwise the rename can land first,
  // and a crash between the two leaves a complete-looking name pointing at
  // garbage.
  if (!sync_path(tmp)) fail("cannot flush result cache temp '" + tmp + "' to disk");

  if (FaultInjector::fire(FaultInjector::Site::IoWrite)) {
    fail("injected I/O fault renaming result cache temp '" + tmp + "' into place");
  }
  std::error_code rename_error;
  std::filesystem::rename(tmp, path, rename_error);
  if (rename_error) {
    fail("cannot move result cache into place at '" + path + "': " + rename_error.message());
  }
  // Persist the new directory entry too.  Best effort: some filesystems
  // reject fsync on directories, and the data itself is already durable.
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  sync_path(parent.empty() ? "." : parent.string());
}

}  // namespace

std::uint64_t fnv1a64(std::string_view text, std::uint64_t hash) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

bool cacheable(const CacheEntry& entry) {
  bool completed = entry.status == assign::SearchStatus::Optimal ||
                   entry.status == assign::SearchStatus::Feasible;
  auto possible = [](double cost) { return std::isfinite(cost) && cost >= 0.0; };
  return completed && possible(entry.cycles) && possible(entry.energy_nj);
}

ResultCache::ResultCache(CacheBounds bounds) : bounds_(bounds) {
  if (bounds_.max_entries > 0) {
    // The floor wins over a smaller cap (a cache that must keep N entries
    // cannot be bounded below N), and every stripe gets at least one slot.
    std::size_t cap = std::max(bounds_.max_entries, bounds_.evict_floor);
    per_stripe_cap_ = std::max<std::size_t>(1, (cap + kStripes - 1) / kStripes);
  }
}

std::size_t ResultCache::stripe_of(std::uint64_t key) { return mix(key) & (kStripes - 1); }

bool ResultCache::claim_eviction() {
  std::size_t current = size_.load(std::memory_order_relaxed);
  while (current > bounds_.evict_floor) {
    if (size_.compare_exchange_weak(current, current - 1, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

bool ResultCache::lookup(std::uint64_t key, CacheEntry& out) {
  Stripe& stripe = stripes_[stripe_of(key)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.map.find(key);
  if (it == stripe.map.end()) {
    stripe.misses.add();
    return false;
  }
  stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru_it);
  out = it->second.entry;
  stripe.hits.add();
  return true;
}

bool ResultCache::insert(std::uint64_t key, CacheEntry entry) {
  // The cacheability guard lives here, in the cache itself: a truncated,
  // infeasible or impossible result must never be stored, no matter which
  // caller (or file) produced it.
  if (!cacheable(entry)) {
    rejected_.add();
    return false;
  }
  Stripe& stripe = stripes_[stripe_of(key)];
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.map.find(key);
    if (it != stripe.map.end()) {
      it->second.entry = std::move(entry);
      stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru_it);
    } else {
      stripe.lru.push_front(key);
      stripe.map.emplace(key, Node{std::move(entry), stripe.lru.begin()});
      size_.fetch_add(1, std::memory_order_relaxed);
      // Evict this stripe's cold tail past the per-stripe cap.  Each
      // removal first claims its decrement against the global floor, so
      // concurrent evictions on other stripes can never team up to breach
      // it.  The just-inserted entry sits at the LRU front and the cap is
      // >= 1, so it is never its own victim.
      while (per_stripe_cap_ != 0 && stripe.map.size() > per_stripe_cap_) {
        if (!claim_eviction()) break;
        std::uint64_t victim = stripe.lru.back();
        stripe.lru.pop_back();
        stripe.map.erase(victim);
        stripe.evictions.add();
      }
    }
  }
  insertions_.add();
  version_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ResultCache::merge_from(const ResultCache& other) {
  if (&other == this) return;
  for (auto& [key, entry] : other.entries()) insert(key, std::move(entry));
}

CacheStats ResultCache::stats() const {
  // Every row is a lock-free read of the same cells a registered metrics
  // source reads: the `cache_stats` verb and a registry snapshot cannot
  // disagree about this cache.
  CacheStats stats;
  stats.shards = kStripes;
  stats.entries = size();
  stats.insertions = insertions_.value();
  stats.rejected = rejected_.value();
  for (const Stripe& stripe : stripes_) {
    stats.hits += stripe.hits.value();
    stats.misses += stripe.misses.value();
    stats.evictions += stripe.evictions.value();
  }
  stats.saves = saves_.value();
  return stats;
}

std::uint64_t ResultCache::register_metrics(obs::Registry& registry, std::string prefix) const {
  return registry.add_source([this, prefix = std::move(prefix)](obs::MetricsSnapshot& out) {
    CacheStats s = stats();
    out.counters.emplace_back(prefix + ".hits", s.hits);
    out.counters.emplace_back(prefix + ".misses", s.misses);
    out.counters.emplace_back(prefix + ".insertions", s.insertions);
    out.counters.emplace_back(prefix + ".rejected", s.rejected);
    out.counters.emplace_back(prefix + ".evictions", s.evictions);
    out.counters.emplace_back(prefix + ".saves", s.saves);
    out.gauges.emplace_back(prefix + ".entries", static_cast<std::int64_t>(s.entries));
  });
}

std::map<std::uint64_t, CacheEntry> ResultCache::entries() const {
  EntryMap copy;
  for (Stripe& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (const auto& [key, node] : stripe.map) copy.emplace(key, node.entry);
  }
  return copy;
}

std::size_t ResultCache::adopt(const EntryMap& loaded) {
  for (const auto& [key, entry] : loaded) insert(key, entry);
  return loaded.size();
}

ResultCache::LoadReport ResultCache::load(const std::string& path) {
  LoadReport report;
  std::ifstream in(path);
  if (!in) {
    // Only a file that does not exist means a cold cache.  An existing but
    // unreadable one must not: proceeding cold and saving later would
    // truncate away every previously accumulated entry.
    if (!std::filesystem::exists(path)) return report;
    throw std::runtime_error("result cache '" + path + "' exists but cannot be read");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  try {
    report.entries = adopt(parse_document(text));
    return report;
  } catch (const std::exception&) {
    // Fall through to the salvage path: a crash mid-write elsewhere (or a
    // stray editor) must not cost the warm entries that are still intact.
  }
  report.entries = report.salvaged = adopt(salvage_lines(text));

  // Preserve the damaged original next to the cache before the next save()
  // overwrites it; the salvage may be incomplete and the wreckage is the
  // only evidence of what was lost.
  std::string quarantine = path + ".quarantine";
  {
    std::ofstream out(quarantine, std::ios::trunc);
    if (out) out << text;
    if (!out) quarantine.clear();
  }

  report.clean = false;
  report.quarantine_path = quarantine;
  std::ostringstream message;
  message << "result cache '" << path << "' is malformed; salvaged " << report.salvaged
          << " entr" << (report.salvaged == 1 ? "y" : "ies");
  if (!quarantine.empty()) {
    message << "; damaged original preserved at '" << quarantine << "'";
  } else {
    message << "; could not preserve the damaged original";
  }
  report.message = message.str();
  return report;
}

void ResultCache::load_json(const std::string& text) { adopt(parse_document(text)); }

std::string ResultCache::to_json(int indent) const {
  std::string p0(static_cast<std::size_t>(indent) * 2, ' ');
  std::string p1 = p0 + "  ";
  std::string p2 = p1 + "  ";
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << p0 << "{\n" << p1 << "\"version\": 1,\n" << p1 << "\"entries\": [";
  bool first = true;
  for (const auto& [key, entry] : entries()) {  // sorted: byte-stable
    out << (first ? "\n" : ",\n");
    first = false;
    out << p2 << "{\"key\": \"" << hex_key(key) << "\", \"l1_bytes\": " << entry.l1_bytes
        << ", \"l2_bytes\": " << entry.l2_bytes << ", \"strategy\": \""
        << core::json_escape(entry.strategy) << "\", \"with_te\": "
        << (entry.with_te ? "true" : "false")
        << ", \"status\": \"" << assign::to_string(entry.status)
        << "\", \"cycles\": " << core::json_number_exact(entry.cycles)
        << ", \"energy_nj\": " << core::json_number_exact(entry.energy_nj) << "}";
  }
  out << (first ? "" : "\n" + p1) << "]\n" << p0 << "}";
  return out.str();
}

void ResultCache::save(const std::string& path) const { persist(path, false); }

bool ResultCache::save_if_dirty(const std::string& path) const { return persist(path, true); }

bool ResultCache::persist(const std::string& path, bool only_if_dirty) const {
  std::lock_guard<std::mutex> lock(save_mu_);
  // Read the version before copying the entries out: entries that land in
  // between are persisted now but re-persisted by the next dirty save —
  // duplicated work at worst, never lost work.
  std::uint64_t version = version_.load(std::memory_order_acquire);
  if (only_if_dirty && version == saved_version_) return false;
  write_atomically(path, to_json());
  saved_version_ = version;
  saves_.add();
  return true;
}

}  // namespace mhla::xplore
