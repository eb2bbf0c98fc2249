#include "dataflow/spill.h"

#include <chrono>
#include <cstdio>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define VISTA_SPILL_HAVE_FSYNC 1
#else
#define VISTA_SPILL_HAVE_FSYNC 0
#endif

#include "dataflow/block_format.h"

namespace vista::df {

namespace fs = std::filesystem;

namespace {

/// splitmix64 finalizer (repo-wide stable hash): picks deterministic
/// corruption offsets for the injected-mutation sites.
uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// fsyncs the directory so a just-renamed file's directory entry is
/// durable too (rename alone only orders the data, not the metadata).
Status SyncDir(const std::string& dir) {
#if VISTA_SPILL_HAVE_FSYNC
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("cannot open spill dir for fsync: " + dir);
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) return Status::IOError("fsync of spill dir failed: " + dir);
#else
  (void)dir;
#endif
  return Status::OK();
}

/// Flips one bit of the file at `path` (the injected bit-rot mutation).
void FlipFileBit(const std::string& path, uint64_t offset, int bit) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return;
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0) {
    const int c = std::fgetc(f);
    if (c != EOF && std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0) {
      std::fputc(c ^ (1 << bit), f);
    }
  }
  std::fclose(f);
}

}  // namespace

SpillManager::SpillManager(std::string dir, obs::Registry& metrics,
                           int async_queue_capacity)
    : dir_(std::move(dir)),
      queue_capacity_(async_queue_capacity < 1
                          ? 1
                          : static_cast<size_t>(async_queue_capacity)) {
  c_writes_ = metrics.counter("spill.writes");
  c_reads_ = metrics.counter("spill.reads");
  c_bytes_written_ = metrics.counter("spill.bytes_written");
  c_bytes_read_ = metrics.counter("spill.bytes_read");
  c_retries_ = metrics.counter("spill.io_retries");
  c_blocks_verified_ = metrics.counter("integrity.blocks_verified");
  c_checksum_failures_ = metrics.counter("integrity.checksum_failures");
  c_torn_writes_ = metrics.counter("integrity.torn_writes_detected");
  c_pf_requests_ = metrics.counter("prefetch.requests");
  c_pf_hits_ = metrics.counter("prefetch.hits");
  c_pf_claimed_ = metrics.counter("prefetch.claimed");
  c_pf_dropped_ = metrics.counter("prefetch.dropped");
  c_pf_corrupt_dropped_ = metrics.counter("prefetch.corrupt_dropped");
  h_write_ms_ = metrics.histogram("spill.write_ms");
  h_read_ms_ = metrics.histogram("spill.read_ms");
  g_queue_depth_ = metrics.gauge("spill.queue_depth");
  g_pf_queue_depth_ = metrics.gauge("prefetch.queue_depth");
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

SpillManager::~SpillManager() {
  // Reader first: a prefetch read may be waiting on the writer (WaitForKey),
  // which stays alive until the reader is joined; and no read may race the
  // directory removal below.
  {
    std::lock_guard<std::mutex> lock(pf_mu_);
    pf_shutdown_ = true;
    pf_queue_.clear();
  }
  pf_work_cv_.notify_all();
  if (reader_.joinable()) reader_.join();
  {
    // Unconsumed slots die with the manager; release their charges.
    std::lock_guard<std::mutex> lock(pf_mu_);
    while (!pf_slots_.empty()) {
      CountPrefetchDrop();
      EraseSlotLocked(pf_slots_.begin()->first);
    }
  }
  {
    std::lock_guard<std::mutex> lock(qmu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  if (writer_.joinable()) writer_.join();  // Drains the queue first.
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

void SpillManager::set_prefetch_capacity(int capacity) {
  std::lock_guard<std::mutex> lock(pf_mu_);
  pf_capacity_ = capacity < 1 ? 1 : static_cast<size_t>(capacity);
}

void SpillManager::set_prefetch_memory(MemoryManager* memory,
                                       MemoryRegion region) {
  std::lock_guard<std::mutex> lock(pf_mu_);
  pf_memory_ = memory;
  pf_region_ = region;
}

std::string SpillManager::PathFor(int64_t key) const {
  return dir_ + "/part-" + std::to_string(key) + ".spill";
}

Status SpillManager::WriteOnce(const std::string& path,
                               const std::vector<uint8_t>& frame) {
  // Crash-consistency protocol: never touch the final path until the new
  // frame is durably complete in a temp file, then publish it with one
  // atomic rename. A crash at any instant leaves either the old complete
  // generation or the new complete generation — never a readable
  // half-block.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open spill temp file " + tmp);
  }
  const size_t written =
      frame.empty() ? 0 : std::fwrite(frame.data(), 1, frame.size(), f);
  // fflush surfaces short-write errors; fsync forces the data to the
  // device (the fsync-class failures: ENOSPC, EIO at writeback); fclose
  // reports anything deferred past both.
  const bool flushed = std::fflush(f) == 0;
#if VISTA_SPILL_HAVE_FSYNC
  const bool synced = flushed && ::fsync(fileno(f)) == 0;
#else
  const bool synced = flushed;
#endif
  const bool closed = std::fclose(f) == 0;
  if (written != frame.size() || !flushed || !synced || !closed) {
    std::error_code ec;
    fs::remove(tmp, ec);  // Never leave a truncated temp behind.
    return Status::IOError("short or failed write to spill file " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::IOError("cannot publish spill file " + path + ": " +
                           ec.message());
  }
  return SyncDir(dir_);
}

Status SpillManager::WriteWithRetry(int64_t key,
                                    const std::vector<uint8_t>& blob) {
  const std::string path = PathFor(key);
  obs::ScopedLatency latency(h_write_ms_);
  uint64_t seq = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) seq = it->second.seq + 1;
  }
  // Integrity-fault decisions are drawn once per (key, generation), so the
  // corruption schedule is independent of transient-write retries.
  const uint64_t gen = FaultInjector::TaskKey(static_cast<uint64_t>(key),
                                              static_cast<int>(seq));
  const bool inject_flip =
      injector_ != nullptr &&
      injector_->ShouldInject(FaultSite::kSpillBitFlip, gen);
  const bool inject_torn =
      injector_ != nullptr &&
      injector_->ShouldInject(FaultSite::kSpillTornWrite, gen);
  // A stale read-back needs a previous generation to be stale relative to:
  // the frame is written under the old sequence number, modelling an
  // overwrite that never reached the device.
  const bool inject_stale =
      injector_ != nullptr && seq > 1 &&
      injector_->ShouldInject(FaultSite::kSpillStaleRead, gen);
  std::vector<uint8_t> frame;
  EncodeBlockFrame(blob, inject_stale ? seq - 1 : seq, &frame);

  for (int attempt = 0;; ++attempt) {
    Status st = Status::OK();
    if (injector_ != nullptr) {
      const uint64_t task = FaultInjector::TaskKey(
          static_cast<uint64_t>(key), attempt);
      st = injector_->MaybeFail(FaultSite::kSpillWrite, task,
                                "key " + std::to_string(key));
      if (st.ok()) {
        st = injector_->MaybeFail(FaultSite::kSpillNoSpace, task,
                                  "ENOSPC, key " + std::to_string(key));
      }
    }
    if (st.ok()) st = WriteOnce(path, frame);
    if (st.ok()) break;
    if (attempt + 1 >= retry_.max_attempts || !IsRetryable(retry_, st)) {
      return st;
    }
    c_retries_->Add(1);
    SleepForBackoff(retry_, static_cast<uint64_t>(key), attempt);
  }

  // Post-success mutations: the write was acknowledged durable, then the
  // bytes rotted (bit flip) or the tail was lost (torn write). Only
  // verify-on-read can catch these. Torn wins over flip — a truncated
  // frame has no payload left to flip.
  if (inject_torn) {
    std::error_code ec;
    fs::resize_file(path, frame.size() / 2, ec);
    if (!ec) injector_->CountInjected(FaultSite::kSpillTornWrite);
  } else if (inject_flip) {
    const uint64_t h = Mix64(static_cast<uint64_t>(key));
    const uint64_t payload_bytes = frame.size() - kBlockFrameOverhead;
    const uint64_t offset =
        payload_bytes > 0 ? kBlockHeaderBytes + h % payload_bytes
                          : h % kBlockHeaderBytes;  // Empty blob: hit header.
    FlipFileBit(path, offset, static_cast<int>(h >> 32) & 7);
    injector_->CountInjected(FaultSite::kSpillBitFlip);
  }
  if (inject_stale) injector_->CountInjected(FaultSite::kSpillStaleRead);

  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[key] = SpillEntry{static_cast<int64_t>(blob.size()), seq};
  }
  {
    // A successful rewrite clears the key's sticky async error.
    std::lock_guard<std::mutex> lock(qmu_);
    failed_keys_.erase(key);
  }
  c_writes_->Add(1);
  c_bytes_written_->Add(static_cast<int64_t>(blob.size()));
  return Status::OK();
}

Status SpillManager::Write(int64_t key, const std::vector<uint8_t>& blob) {
  WaitForKey(key);  // Never race a pending async write of the same key.
  InvalidatePrefetch(key);  // A prefetched previous generation is stale now.
  return WriteWithRetry(key, blob);
}

Status SpillManager::WriteAsync(int64_t key, std::vector<uint8_t> blob) {
  // Invalidate before enqueueing: if the reader were still waiting for the
  // key after this write entered the queue, invalidation would deadlock
  // against its WaitForKey.
  InvalidatePrefetch(key);
  std::unique_lock<std::mutex> lock(qmu_);
  if (!writer_started_) {
    writer_started_ = true;
    writer_ = std::thread([this] { WriterLoop(); });
  }
  // Bounded queue = double buffering with backpressure: the caller can
  // serialize the next partition while the writer drains this one, but
  // cannot run unboundedly ahead of the disk.
  space_cv_.wait(lock, [&] { return queue_.size() < queue_capacity_; });
  queue_.push_back(PendingWrite{key, std::move(blob)});
  g_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  work_cv_.notify_one();
  return Status::OK();
}

void SpillManager::WriterLoop() {
  for (;;) {
    PendingWrite item;
    {
      std::unique_lock<std::mutex> lock(qmu_);
      work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Shutdown with a drained queue.
      item = std::move(queue_.front());
      queue_.pop_front();
      writing_ = true;
      writing_key_ = item.key;
      g_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
      space_cv_.notify_all();
    }
    Status st = WriteWithRetry(item.key, item.blob);
    {
      std::lock_guard<std::mutex> lock(qmu_);
      writing_ = false;
      if (!st.ok()) {
        // First error wins for Flush; the per-key latch keeps the error
        // sticky so a later Read of this key surfaces the real failure
        // instead of NotFound or the stale previous generation.
        if (async_error_.ok()) async_error_ = st;
        failed_keys_[item.key] = st;
      }
    }
    drained_cv_.notify_all();
  }
}

bool SpillManager::KeyPendingLocked(int64_t key) const {
  if (writing_ && writing_key_ == key) return true;
  for (const PendingWrite& w : queue_) {
    if (w.key == key) return true;
  }
  return false;
}

void SpillManager::WaitForKey(int64_t key) {
  std::unique_lock<std::mutex> lock(qmu_);
  drained_cv_.wait(lock, [&] { return !KeyPendingLocked(key); });
}

void SpillManager::WaitDrained() const {
  std::unique_lock<std::mutex> lock(qmu_);
  drained_cv_.wait(lock, [&] { return queue_.empty() && !writing_; });
}

Status SpillManager::Flush() {
  std::unique_lock<std::mutex> lock(qmu_);
  drained_cv_.wait(lock, [&] { return queue_.empty() && !writing_; });
  Status st = async_error_;
  async_error_ = Status::OK();
  return st;
}

int64_t SpillManager::bytes_written() const {
  WaitDrained();
  return c_bytes_written_->value();
}

int64_t SpillManager::bytes_read() const {
  WaitDrained();
  return c_bytes_read_->value();
}

int64_t SpillManager::num_spills() const {
  WaitDrained();
  return c_writes_->value();
}

int64_t SpillManager::io_retries() const {
  WaitDrained();
  return c_retries_->value();
}

int64_t SpillManager::blocks_verified() const {
  WaitDrained();
  return c_blocks_verified_->value();
}

int64_t SpillManager::checksum_failures() const {
  WaitDrained();
  return c_checksum_failures_->value();
}

int64_t SpillManager::torn_writes_detected() const {
  WaitDrained();
  return c_torn_writes_->value();
}

Result<std::vector<uint8_t>> SpillManager::ReadFileBytes(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open spill file " + path);
  }
  // Read whatever is actually there — a torn file is shorter than the
  // frame it should hold, and the decoder is what diagnoses that.
  std::error_code ec;
  const uint64_t size = fs::file_size(path, ec);
  if (ec) {
    std::fclose(f);
    return Status::IOError("cannot stat spill file " + path);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  const size_t read =
      bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (read != bytes.size()) {
    return Status::IOError("short read from spill file " + path);
  }
  return bytes;
}

Result<std::vector<uint8_t>> SpillManager::Read(int64_t key) {
  WaitForKey(key);  // Read-after-write ordering for async spills.
  {
    // The sticky latch first: a failed overwrite must surface its own
    // error, never NotFound and never the intact previous generation (a
    // prefetched slot for the key necessarily predates the failed write,
    // so it is dropped, not served).
    std::lock_guard<std::mutex> lock(qmu_);
    auto failed = failed_keys_.find(key);
    if (failed != failed_keys_.end()) {
      Status latched = failed->second;
      {
        std::lock_guard<std::mutex> pf_lock(pf_mu_);
        auto slot = pf_slots_.find(key);
        if (slot != pf_slots_.end() &&
            slot->second.state != PrefetchSlot::kReading) {
          if (slot->second.state == PrefetchSlot::kQueued) {
            for (auto q = pf_queue_.begin(); q != pf_queue_.end(); ++q) {
              if (*q == key) {
                pf_queue_.erase(q);
                break;
              }
            }
          }
          CountPrefetchDrop();
          EraseSlotLocked(key);
        }
      }
      return latched;
    }
  }
  {
    // Consume the key's prefetch slot, if any: a ready outcome is the hit
    // path (no second read of the same bytes, no second fault draw); an
    // in-flight read is waited for on the per-key latch; a still-queued
    // hint is claimed back and the read runs synchronously below.
    std::unique_lock<std::mutex> lock(pf_mu_);
    auto it = pf_slots_.find(key);
    if (it != pf_slots_.end()) {
      if (it->second.state == PrefetchSlot::kQueued) {
        for (auto q = pf_queue_.begin(); q != pf_queue_.end(); ++q) {
          if (*q == key) {
            pf_queue_.erase(q);
            break;
          }
        }
        g_pf_queue_depth_->Set(static_cast<int64_t>(pf_queue_.size()));
        EraseSlotLocked(key);
        c_pf_claimed_->Add(1);
      } else {
        pf_state_cv_.wait(lock, [&] {
          auto s = pf_slots_.find(key);
          return s == pf_slots_.end() ||
                 s->second.state == PrefetchSlot::kReady;
        });
        auto s = pf_slots_.find(key);
        if (s != pf_slots_.end()) {
          Status st = s->second.status;
          std::vector<uint8_t> payload = std::move(s->second.payload);
          EraseSlotLocked(key);
          if (st.ok()) {
            c_pf_hits_->Add(1);
            return payload;
          }
          // The prefetched block was corrupt or unreadable: drop it and
          // surface the same error the sync path would have — kDataLoss
          // routes to lineage recomputation upstream, with integrity
          // counters already bumped exactly once by the reader.
          if (st.IsDataLoss()) c_pf_corrupt_dropped_->Add(1);
          return st;
        }
        // Slot vanished (invalidated mid-read): fall through to sync.
      }
    }
  }
  SpillEntry entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return Status::NotFound("no spill for partition key " +
                              std::to_string(key));
    }
    entry = it->second;
  }
  return ReadVerifiedWithRetry(key, entry);
}

Result<std::vector<uint8_t>> SpillManager::ReadVerifiedWithRetry(
    int64_t key, const SpillEntry& entry) {
  const std::string path = PathFor(key);
  obs::ScopedLatency latency(h_read_ms_);
  for (int attempt = 0;; ++attempt) {
    const uint64_t task =
        FaultInjector::TaskKey(static_cast<uint64_t>(key), attempt);
    Status st = injector_ == nullptr
                    ? Status::OK()
                    : injector_->MaybeFail(FaultSite::kSpillRead, task,
                                           "key " + std::to_string(key));
    if (st.ok() && injector_ != nullptr &&
        injector_->ShouldInject(FaultSite::kSpillReadDelay, task)) {
      // Delayed I/O: the read succeeds but stalls first (slow device).
      // Wall-clock only — whether prefetch hides the stall is what the
      // overlap tests and bench_pipeline measure.
      injector_->CountInjected(FaultSite::kSpillReadDelay);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          injector_->config().spill_read_delay_ms));
    }
    Result<std::vector<uint8_t>> file = st.ok() ? ReadFileBytes(path) : st;
    if (file.ok()) {
      // Verify-on-read: the frame must decode, check out bit-for-bit, and
      // carry the generation this index expects. kDataLoss is final —
      // re-reading corrupt bytes cannot help — so it exits the retry loop
      // below via the non-retryable branch and routes to lineage
      // recomputation upstream.
      BlockDefect defect = BlockDefect::kNone;
      auto block = DecodeBlockFrame(file->data(), file->size(),
                                    static_cast<int64_t>(entry.seq), &defect);
      if (block.ok()) {
        c_blocks_verified_->Add(1);
        c_reads_->Add(1);
        c_bytes_read_->Add(entry.payload_bytes);
        return std::move(block->payload);
      }
      c_checksum_failures_->Add(1);
      if (IsTornWriteDefect(defect)) c_torn_writes_->Add(1);
      st = Status::DataLoss("spill block for key " + std::to_string(key) +
                            " failed verification: " +
                            block.status().message());
    } else {
      st = file.status();
    }
    if (attempt + 1 >= retry_.max_attempts || !IsRetryable(retry_, st)) {
      return st;
    }
    c_retries_->Add(1);
    SleepForBackoff(retry_, static_cast<uint64_t>(key), attempt);
  }
}

void SpillManager::CountPrefetchDrop() { c_pf_dropped_->Add(1); }

void SpillManager::EraseSlotLocked(int64_t key) {
  auto it = pf_slots_.find(key);
  if (it == pf_slots_.end()) return;
  if (it->second.charged_bytes > 0 && pf_memory_ != nullptr) {
    pf_memory_->Release(pf_region_, it->second.charged_bytes);
  }
  pf_slots_.erase(it);
}

void SpillManager::InvalidatePrefetch(int64_t key) {
  std::unique_lock<std::mutex> lock(pf_mu_);
  auto it = pf_slots_.find(key);
  if (it == pf_slots_.end()) return;
  if (it->second.state == PrefetchSlot::kReading) {
    // Never mutate the file under an in-flight read: wait for the reader
    // to latch its outcome (bounded — one read), then drop it.
    pf_state_cv_.wait(lock, [&] {
      auto s = pf_slots_.find(key);
      return s == pf_slots_.end() || s->second.state == PrefetchSlot::kReady;
    });
    it = pf_slots_.find(key);
    if (it == pf_slots_.end()) return;
  }
  if (it->second.state == PrefetchSlot::kQueued) {
    for (auto q = pf_queue_.begin(); q != pf_queue_.end(); ++q) {
      if (*q == key) {
        pf_queue_.erase(q);
        break;
      }
    }
    g_pf_queue_depth_->Set(static_cast<int64_t>(pf_queue_.size()));
  }
  CountPrefetchDrop();
  EraseSlotLocked(key);
}

void SpillManager::Prefetch(int64_t key) {
  {
    // A latched async-write error must surface on Read; prefetching the
    // intact previous generation would mask it.
    std::lock_guard<std::mutex> lock(qmu_);
    if (failed_keys_.count(key) > 0) {
      CountPrefetchDrop();
      return;
    }
  }
  int64_t payload_bytes = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) payload_bytes = it->second.payload_bytes;
  }
  if (payload_bytes < 0) {
    // Nothing durably spilled under the key (yet) — e.g. the write is
    // still queued. The sync read path handles it; the hint just drops.
    CountPrefetchDrop();
    return;
  }
  std::lock_guard<std::mutex> lock(pf_mu_);
  if (pf_shutdown_) return;
  if (pf_slots_.count(key) > 0) return;  // Already queued/reading/ready.
  if (pf_slots_.size() >= pf_capacity_) {
    CountPrefetchDrop();
    return;
  }
  int64_t charged = 0;
  if (pf_memory_ != nullptr && payload_bytes > 0) {
    if (!pf_memory_->TryReserve(pf_region_, payload_bytes).ok()) {
      CountPrefetchDrop();  // No headroom: never buffer past the budget.
      return;
    }
    charged = payload_bytes;
  }
  if (!reader_started_) {
    reader_started_ = true;
    reader_ = std::thread([this] { ReaderLoop(); });
  }
  PrefetchSlot slot;
  slot.state = PrefetchSlot::kQueued;
  slot.charged_bytes = charged;
  pf_slots_.emplace(key, std::move(slot));
  pf_queue_.push_back(key);
  c_pf_requests_->Add(1);
  g_pf_queue_depth_->Set(static_cast<int64_t>(pf_queue_.size()));
  pf_work_cv_.notify_one();
}

void SpillManager::ReaderLoop() {
  for (;;) {
    int64_t key = 0;
    {
      std::unique_lock<std::mutex> lock(pf_mu_);
      pf_work_cv_.wait(lock,
                       [&] { return pf_shutdown_ || !pf_queue_.empty(); });
      if (pf_queue_.empty()) return;  // Shutdown with a drained queue.
      key = pf_queue_.front();
      pf_queue_.pop_front();
      g_pf_queue_depth_->Set(static_cast<int64_t>(pf_queue_.size()));
      auto it = pf_slots_.find(key);
      if (it == pf_slots_.end()) continue;  // Claimed back meanwhile.
      it->second.state = PrefetchSlot::kReading;
    }
    // Order after any pending async write of the key, then run the exact
    // verified-read path Read would have run — same fault draws, same
    // integrity counters — so accounting is schedule-independent.
    WaitForKey(key);
    Status latched = Status::OK();
    {
      std::lock_guard<std::mutex> lock(qmu_);
      auto failed = failed_keys_.find(key);
      if (failed != failed_keys_.end()) latched = failed->second;
    }
    Result<std::vector<uint8_t>> outcome = std::vector<uint8_t>{};
    if (!latched.ok()) {
      outcome = latched;
    } else {
      SpillEntry entry;
      bool found = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
          entry = it->second;
          found = true;
        }
      }
      outcome = found ? ReadVerifiedWithRetry(key, entry)
                      : Result<std::vector<uint8_t>>(Status::NotFound(
                            "no spill for partition key " +
                            std::to_string(key)));
    }
    {
      std::lock_guard<std::mutex> lock(pf_mu_);
      auto it = pf_slots_.find(key);
      if (it != pf_slots_.end()) {
        it->second.status = outcome.status();
        if (outcome.ok()) it->second.payload = std::move(outcome).value();
        it->second.state = PrefetchSlot::kReady;
      }
      // A slot invalidated mid-read was already counted dropped by its
      // invalidator; nothing to latch.
    }
    pf_state_cv_.notify_all();
  }
}

void SpillManager::Remove(int64_t key) {
  WaitForKey(key);  // Never delete out from under a pending async write.
  InvalidatePrefetch(key);  // Drop any latched/queued read-ahead of it.
  {
    std::lock_guard<std::mutex> lock(qmu_);
    failed_keys_.erase(key);
  }
  // Erase the size entry and delete the file under the same lock so a
  // concurrent Read cannot find the entry after the file is gone.
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(key);
  std::error_code ec;
  fs::remove(PathFor(key), ec);
}

}  // namespace vista::df
