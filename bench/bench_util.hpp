// Shared scaffolding for the figure/table benches: canned scenario
// builders matching the paper's configurations, synchronous drivers,
// and uniform printing (series table + ASCII sparkline + paper-vs-
// measured summary lines).
#pragma once

#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/timeseries.hpp"
#include "gpfs/cluster.hpp"
#include "net/presets.hpp"
#include "storage/array.hpp"
#include "storage/block_device.hpp"

namespace mgfs::bench {

inline const gpfs::Principal kUser{"/C=US/O=NPACI/CN=bench", 501, 100,
                                   false};

inline void banner(const std::string& id, const std::string& title) {
  std::cout << "\n==============================================================\n"
            << id << " — " << title << "\n"
            << "==============================================================\n";
}

inline void report(const std::string& metric, double measured,
                   double paper, const std::string& unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  %s: measured %.1f %s   (paper: %.1f %s, ratio %.2f)",
                metric.c_str(), measured, unit.c_str(), paper, unit.c_str(),
                paper > 0 ? measured / paper : 0.0);
  std::cout << buf << "\n";
}

inline void show_series(const TimeSeries& s, const std::string& xlabel,
                        const std::string& ylabel) {
  std::cout << "\n" << s.name() << " [" << sparkline(s) << "]\n";
  s.print(std::cout, xlabel, ylabel);
}

/// The argument type of a `std::function<void(T)>` completion callback.
template <typename Cb>
struct CallbackArg;
template <typename T>
struct CallbackArg<std::function<void(T)>> {
  using type = std::decay_t<T>;
};

/// Start `(obj->*op)(args..., done)`, run the simulator until idle, and
/// return what `done` received (the op must complete). The result type
/// is read off the op's trailing callback parameter.
template <typename Obj, typename... P, typename... A>
auto await(sim::Simulator& sim, Obj* obj, void (Obj::*op)(P...),
           A&&... args) {
  using Done = std::tuple_element_t<sizeof...(P) - 1, std::tuple<P...>>;
  using T = typename CallbackArg<std::decay_t<Done>>::type;
  std::optional<T> out;
  (obj->*op)(std::forward<A>(args)..., [&out](T r) { out = std::move(r); });
  sim.run();
  MGFS_ASSERT(out.has_value(), "async op never completed");
  return std::move(*out);
}

/// The value of `r`, which must have succeeded (else print `what` and
/// the error, and abort).
template <typename T>
T must(Result<T> r, const char* what) {
  if (!r.ok()) std::cerr << what << ": " << r.error().to_string() << "\n";
  MGFS_ASSERT(r.ok(), what);
  return std::move(r).take();
}
inline void must(const Status& s, const char* what) {
  if (!s.ok()) std::cerr << what << ": " << s.to_string() << "\n";
  MGFS_ASSERT(s.ok(), what);
}

/// A GPFS cluster shaped like one of the paper's server-side setups:
/// `servers` NSD server nodes (GbE each) fronting `nsd_count` devices,
/// plus a dedicated manager node. Devices are RateDevices by default
/// (the network is the object of study in the WAN figures); the Fig-11
/// bench builds real DS4100 arrays instead.
struct ServerFarm {
  std::vector<net::NodeId> server_nodes;
  net::NodeId manager;
  std::vector<std::unique_ptr<storage::BlockDevice>> devices;
  std::vector<std::unique_ptr<storage::StorageArray>> arrays;
  std::vector<std::uint32_t> nsd_ids;
  gpfs::FileSystem* fs = nullptr;
};

/// Attach a farm to `site` hosts [first_host, first_host+servers) and
/// build a file system striped over `nsd_count` RateDevices.
inline ServerFarm make_rate_farm(gpfs::Cluster& cluster, sim::Simulator& sim,
                                 const net::Site& site,
                                 std::size_t first_host, std::size_t servers,
                                 std::size_t nsd_count,
                                 BytesPerSec device_rate,
                                 Bytes device_capacity,
                                 const std::string& fsname,
                                 Bytes block_size = 1 * MiB) {
  ServerFarm farm;
  for (std::size_t i = 0; i < servers; ++i) {
    net::NodeId n = site.hosts.at(first_host + i);
    cluster.add_node(n);
    cluster.add_nsd_server(n);
    farm.server_nodes.push_back(n);
  }
  farm.manager = site.hosts.at(first_host + servers);
  cluster.add_node(farm.manager);
  for (std::size_t i = 0; i < nsd_count; ++i) {
    farm.devices.push_back(std::make_unique<storage::RateDevice>(
        sim, device_capacity, device_rate, 0.5e-3,
        "dev" + std::to_string(i)));
    // Failure-domain tag = serving node: NSDs behind the same primary
    // share fate, so replica copies spread across serving nodes.
    farm.nsd_ids.push_back(cluster.create_nsd(
        "nsd" + std::to_string(i), farm.devices.back().get(),
        farm.server_nodes[i % servers],
        farm.server_nodes[(i + 1) % servers],
        static_cast<std::uint32_t>(i % servers)));
  }
  farm.fs = &cluster.create_filesystem(fsname, farm.nsd_ids, block_size,
                                       farm.manager);
  return farm;
}

/// Pre-create a file of `size` directly in the namespace + allocation
/// maps (seeding multi-gigabyte datasets through the simulated network
/// would dominate bench runtime without adding information).
inline gpfs::InodeNum seed_file(gpfs::FileSystem& fs, const std::string& path,
                                Bytes size) {
  gpfs::Principal admin{"/CN=seed", 0, 0, true};
  auto ino = fs.ns().create(path, admin, gpfs::Mode{066}, 0.0);
  MGFS_ASSERT(ino.ok(), "seed_file create failed");
  const Bytes bs = fs.block_size();
  const std::uint64_t blocks = ceil_div(size, bs);
  for (std::uint64_t bi = 0; bi < blocks; ++bi) {
    const auto preferred = fs.nsd_for_block(*ino, bi);
    auto addr = fs.alloc().allocate_on(preferred);
    MGFS_ASSERT(addr.ok(), "seed_file allocation failed");
    MGFS_ASSERT(fs.ns().set_block(*ino, bi, *addr).ok(), "set_block");
  }
  MGFS_ASSERT(fs.ns().extend_size(*ino, size, 0.0).ok(), "extend_size");
  return *ino;
}

/// Wire the exporting side and an importing cluster for a remote mount
/// (mmauth add/grant + mmremotecluster/mmremotefs), then mount on the
/// given client nodes. Returns the bound clients.
inline std::vector<gpfs::Client*> remote_mount_all(
    sim::Simulator& sim, gpfs::Cluster& exporter, gpfs::Cluster& importer,
    const std::string& fsname, net::NodeId contact,
    const std::vector<net::NodeId>& client_nodes,
    gpfs::AccessMode mode = gpfs::AccessMode::read_only) {
  exporter.mmauth_add(importer.name(), importer.public_key());
  MGFS_ASSERT(exporter
                  .mmauth_grant(importer.name(), fsname,
                                mode == gpfs::AccessMode::read_write
                                    ? auth::AccessMode::read_write
                                    : auth::AccessMode::read_only)
                  .ok(),
              "mmauth grant failed");
  MGFS_ASSERT(importer
                  .mmremotecluster_add(exporter.name(),
                                       exporter.public_key(), &exporter,
                                       contact)
                  .ok(),
              "mmremotecluster add failed");
  MGFS_ASSERT(importer.mmremotefs_add("/" + fsname, exporter.name(), fsname)
                  .ok(),
              "mmremotefs add failed");
  std::vector<gpfs::Client*> clients(client_nodes.size(), nullptr);
  std::size_t pending = client_nodes.size();
  for (std::size_t i = 0; i < client_nodes.size(); ++i) {
    importer.mount_remote("/" + fsname, client_nodes[i],
                          [&clients, i, &pending](Result<gpfs::Client*> r) {
                            if (!r.ok()) {
                              std::cerr << "remote mount failed: "
                                        << r.error().to_string() << "\n";
                            }
                            MGFS_ASSERT(r.ok(), "remote mount failed");
                            clients[i] = *r;
                            --pending;
                          });
  }
  sim.run();
  MGFS_ASSERT(pending == 0, "remote mounts did not complete");
  return clients;
}

}  // namespace mgfs::bench
