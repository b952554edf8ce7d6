#include "query/reliable.h"

#include <algorithm>

namespace pier {
namespace query {

bool FrameDedupe::Admit(uint64_t frame_id, uint64_t incarnation) {
  if (frame_id == 0) return false;  // ids start at 1; 0 is malformed
  if (incarnation < incarnation_) return false;  // a superseded sender
  if (incarnation > incarnation_) {
    // The sender restarted: its ids count from 1 again.
    incarnation_ = incarnation;
    max_contig_ = 0;
    sparse_.clear();
  }
  if (frame_id <= max_contig_ || sparse_.count(frame_id)) return false;
  ++admitted_;
  if (frame_id == max_contig_ + 1) {
    ++max_contig_;
    // Absorb any sparse ids that became contiguous.
    auto it = sparse_.begin();
    while (it != sparse_.end() && *it == max_contig_ + 1) {
      ++max_contig_;
      it = sparse_.erase(it);
    }
  } else if (sparse_.size() < kMaxSparse) {
    sparse_.insert(frame_id);
  }
  return true;
}

uint64_t ReliableOutbox::Enqueue(sim::HostId to, std::string bytes,
                                 bool control) {
  uint64_t id = next_id_++;
  Frame f;
  f.to = to;
  f.control = control;
  pending_bytes_ += bytes.size();
  if (!control) ++data_pending_;
  f.bytes = std::move(bytes);
  pending_.emplace(id, std::move(f));
  return id;
}

ReliableOutbox::Frame* ReliableOutbox::Get(uint64_t frame_id) {
  auto it = pending_.find(frame_id);
  return it == pending_.end() ? nullptr : &it->second;
}

bool ReliableOutbox::Ack(uint64_t frame_id) {
  auto it = pending_.find(frame_id);
  if (it == pending_.end()) return false;
  pending_bytes_ -= it->second.bytes.size();
  if (!it->second.control) --data_pending_;
  pending_.erase(it);
  return true;
}

void ReliableOutbox::MarkLost(uint64_t frame_id) {
  auto it = pending_.find(frame_id);
  if (it == pending_.end()) return;
  pending_bytes_ -= it->second.bytes.size();
  if (!it->second.control) {
    --data_pending_;
    ++lost;
  }
  pending_.erase(it);
}

}  // namespace query
}  // namespace pier
