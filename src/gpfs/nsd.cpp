#include "gpfs/nsd.hpp"

#include <utility>

#include "common/fan_in.hpp"

namespace mgfs::gpfs {

NsdServer::NsdServer(sim::Simulator& sim, net::NodeId node, std::string name,
                     sim::Time cpu_per_request)
    : sim_(sim),
      node_(node),
      name_(std::move(name)),
      cpu_per_request_(cpu_per_request),
      cpu_(sim, name_ + ".cpu") {}

void NsdServer::set_slow_factor(double factor) {
  MGFS_ASSERT(factor > 0.0, "slow factor must be positive");
  slow_factor_ = factor;
}

NsdServer::GateDecision NsdServer::write_admitted(ClientId client,
                                                  InodeNum ino,
                                                  std::uint64_t lease_epoch,
                                                  std::uint64_t mgr_epoch) {
  if (!write_gate_) return GateDecision::admit;
  const GateDecision d = write_gate_(client, ino, lease_epoch, mgr_epoch);
  if (d == GateDecision::fence) ++fenced_;
  if (d == GateDecision::retry) ++gated_retries_;
  return d;
}

void NsdServer::handle(storage::BlockDevice& dev, Bytes offset, Bytes len,
                       bool write, double cipher_s_per_byte,
                       storage::IoCallback done) {
  handle_vectored(dev, {IoExtent{offset, len}}, write, cipher_s_per_byte,
                  std::move(done));
}

void NsdServer::handle_vectored(storage::BlockDevice& dev,
                                std::vector<IoExtent> extents, bool write,
                                double cipher_s_per_byte,
                                storage::IoCallback done) {
  MGFS_ASSERT(!extents.empty(), "vectored serve with no extents");
  if (dev.failed()) {
    // Dead media answers immediately: the controller knows the LUN is
    // gone without touching a spindle. io_error is non-retryable — the
    // client's recourse is another replica, not another attempt here.
    sim_.defer([done = std::move(done)] {
      done(Status(Errc::io_error, "NSD backing device failed"));
    });
    return;
  }
  Bytes total = 0;
  for (const IoExtent& e : extents) total += e.len;
  const sim::Time cpu =
      (cpu_per_request_ + cipher_s_per_byte * static_cast<double>(total)) *
      slow_factor_;
  cpu_.acquire(cpu, [this, &dev, extents = std::move(extents), write, total,
                     done = std::move(done)]() mutable {
    FanIn join(extents.size(),
               [this, total, done = std::move(done)](Status st) {
                 if (st.ok()) {
                   ++requests_;
                   bytes_ += total;
                 }
                 done(st);
               });
    for (const IoExtent& e : extents) dev.io(e.offset, e.len, write, join);
  });
}

}  // namespace mgfs::gpfs
