#include "serve/view_cache.h"

#include <cstring>
#include <limits>

namespace vista::serve {

namespace {

/// splitmix64 finalizer — the same mixing the engine's partitioner uses.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashTensorShape(uint64_t h, const Tensor& t) {
  h = Mix64(h ^ static_cast<uint64_t>(t.shape().rank()));
  for (int i = 0; i < t.shape().rank(); ++i) {
    h = Mix64(h ^ static_cast<uint64_t>(t.shape().dim(i)));
  }
  return h;
}

uint64_t HashRecord(const df::Record& r) {
  uint64_t h = Mix64(static_cast<uint64_t>(r.id));
  h = Mix64(h ^ static_cast<uint64_t>(r.struct_features.size()));
  h = Mix64(h ^ static_cast<uint64_t>(r.images.size()));
  for (const Tensor& img : r.images) {
    h = HashTensorShape(h, img);
    // Sample a few leading pixels so equal-shaped but different images
    // fingerprint apart.
    const int64_t sample =
        img.num_elements() < 8 ? img.num_elements() : int64_t{8};
    for (int64_t i = 0; i < sample; ++i) {
      uint32_t bits = 0;
      std::memcpy(&bits, img.data() + i, sizeof(bits));
      h = Mix64(h ^ bits);
    }
  }
  h = Mix64(h ^ static_cast<uint64_t>(r.features.size()));
  return h;
}

}  // namespace

Result<uint64_t> DatasetFingerprint(const df::Table& table) {
  // Commutative combine (sum + xor) so the fingerprint is independent of
  // partitioning and record order within partitions.
  uint64_t sum = 0;
  uint64_t xr = 0;
  int64_t n = 0;
  for (const auto& p : table.partitions) {
    VISTA_ASSIGN_OR_RETURN(std::vector<df::Record> records,
                           p->ReadRecords());
    for (const df::Record& r : records) {
      const uint64_t h = HashRecord(r);
      sum += h;
      xr ^= Mix64(h);
      ++n;
    }
  }
  return Mix64(sum ^ Mix64(xr) ^ static_cast<uint64_t>(n));
}

FeatureViewCache::FeatureViewCache(df::MemoryManager* memory,
                                   obs::Registry& metrics,
                                   int64_t capacity_bytes)
    : memory_(memory), capacity_bytes_(capacity_bytes) {
  c_hits_ = metrics.counter("serve.view_cache.hits");
  c_misses_ = metrics.counter("serve.view_cache.misses");
  c_inserts_ = metrics.counter("serve.view_cache.inserts");
  c_evictions_ = metrics.counter("serve.view_cache.evictions");
  c_insert_overflows_ = metrics.counter("serve.view_cache.overflows");
  c_corrupt_drops_ = metrics.counter("serve.view_cache.corrupt_drops");
  c_blocks_verified_ = metrics.counter("integrity.blocks_verified");
  c_checksum_failures_ = metrics.counter("integrity.checksum_failures");
  g_resident_bytes_ = metrics.gauge("serve.view_cache.resident_bytes");
  g_views_ = metrics.gauge("serve.view_cache.views");
}

FeatureViewCache::~FeatureViewCache() { Clear(); }

std::optional<MaterializedView> FeatureViewCache::Lookup(
    const std::string& model, uint64_t fingerprint, int max_layer,
    dl::Precision precision) {
  const int prec = static_cast<int>(precision);
  std::lock_guard<std::mutex> lock(mu_);
  // Keys order by (model, fingerprint, precision, layer); the deepest
  // usable view is the last entry at or below (model, fingerprint,
  // precision, max_layer). An entry that fails verification is dropped and
  // the scan continues at the next-deepest candidate — resuming inference
  // from rotted features would silently corrupt every downstream layer.
  for (;;) {
    auto it =
        entries_.upper_bound(Key{model, fingerprint, prec, max_layer});
    if (it == entries_.begin()) break;
    --it;
    const auto& [key_model, key_fp, key_prec, key_layer] = it->first;
    if (key_model != model || key_fp != fingerprint || key_prec != prec) {
      break;
    }
    bool intact = true;
    for (const auto& p : it->second.view.table.partitions) {
      if (p->resident() &&
          p->format() == df::PersistenceFormat::kSerialized) {
        if (p->VerifyBlob().ok()) {
          c_blocks_verified_->Add(1);
        } else {
          c_checksum_failures_->Add(1);
          intact = false;
        }
      }
    }
    if (!intact) {
      memory_->Release(df::MemoryRegion::kStorage, it->second.charged_bytes);
      charged_total_ -= it->second.charged_bytes;
      c_corrupt_drops_->Add(1);
      g_resident_bytes_->Add(-it->second.charged_bytes);
      entries_.erase(it);
      g_views_->Set(static_cast<int64_t>(entries_.size()));
      continue;
    }
    it->second.last_use = ++use_seq_;
    c_hits_->Add(1);
    return it->second.view;
  }
  c_misses_->Add(1);
  return std::nullopt;
}

bool FeatureViewCache::MakeRoom(int64_t bytes) {
  for (;;) {
    const bool region_ok =
        memory_->Available(df::MemoryRegion::kStorage) >= bytes;
    const bool capacity_ok =
        capacity_bytes_ < 0 || charged_total_ + bytes <= capacity_bytes_;
    if (region_ok && capacity_ok) return true;
    if (entries_.empty()) return false;
    // Victim: lowest FLOPs-saved per byte; ties broken LRU.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (victim == entries_.end() ||
          it->second.value() < victim->second.value() ||
          (it->second.value() == victim->second.value() &&
           it->second.last_use < victim->second.last_use)) {
        victim = it;
      }
    }
    memory_->Release(df::MemoryRegion::kStorage,
                     victim->second.charged_bytes);
    charged_total_ -= victim->second.charged_bytes;
    c_evictions_->Add(1);
    g_resident_bytes_->Add(-victim->second.charged_bytes);
    entries_.erase(victim);
    g_views_->Set(static_cast<int64_t>(entries_.size()));
  }
}

bool FeatureViewCache::Insert(const std::string& model, uint64_t fingerprint,
                              MaterializedView view, int64_t recompute_flops,
                              dl::Precision precision) {
  const int64_t bytes = view.table.memory_bytes();
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{model, fingerprint, static_cast<int>(precision),
                view.layer};
  if (entries_.count(key) > 0) return true;  // Raced duplicate; keep first.
  if (!MakeRoom(bytes)) {
    c_insert_overflows_->Add(1);
    return false;
  }
  if (!memory_->TryReserve(df::MemoryRegion::kStorage, bytes).ok()) {
    // Lost a race against another Storage consumer between the headroom
    // check and the reserve; treat as overflow rather than failing.
    c_insert_overflows_->Add(1);
    return false;
  }
  Entry entry;
  entry.view = std::move(view);
  entry.charged_bytes = bytes;
  entry.recompute_flops = recompute_flops;
  entry.last_use = ++use_seq_;
  charged_total_ += bytes;
  entries_.emplace(key, std::move(entry));
  c_inserts_->Add(1);
  g_resident_bytes_->Add(bytes);
  g_views_->Set(static_cast<int64_t>(entries_.size()));
  return true;
}

void FeatureViewCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    memory_->Release(df::MemoryRegion::kStorage, entry.charged_bytes);
    g_resident_bytes_->Add(-entry.charged_bytes);
  }
  charged_total_ = 0;
  entries_.clear();
  g_views_->Set(0);
}

int64_t FeatureViewCache::num_views() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

int64_t FeatureViewCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return charged_total_;
}

}  // namespace vista::serve
