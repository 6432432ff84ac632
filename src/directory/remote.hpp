// The directory as a networked service (paper §3).
//
// "The directory servers, as users of the internetwork themselves, can
// also observe load and failures as part of their normal operation."  And
// footnote 10: "Acquiring a route requires a full round trip to the region
// server for the destination.  Thus, without caching, the time to acquire
// the route incurs a similar round trip delay to that incurred by circuit
// setup in a circuit-switched network."
//
// DirectoryServerNode exposes a Directory over VMTP on a host attached to
// the internetwork; RemoteDirectoryClient issues route queries as
// transactions, given only a bootstrap route to its region server.  The
// query/response wire formats are defined here.
#pragma once

#include <functional>
#include <set>
#include <memory>
#include <string>

#include "directory/directory.hpp"
#include "transport/vmtp.hpp"

namespace srp::dir {

/// Well-known transport entity id of a region's directory server.
inline constexpr std::uint64_t kDirectoryEntity = 0xD14EC7041ULL;

/// Serialized route query: requester topology id + name + options.
wire::Bytes encode_route_query(std::uint32_t from_node,
                               std::string_view name,
                               const QueryOptions& options);

struct DecodedQuery {
  std::uint32_t from_node = 0;
  std::string name;
  QueryOptions options;
};
std::optional<DecodedQuery> decode_route_query(
    std::span<const std::uint8_t> bytes);

/// Serialized query result (routes with attributes and tokens).
wire::Bytes encode_issued_routes(const std::vector<IssuedRoute>& routes);
std::optional<std::vector<IssuedRoute>> decode_issued_routes(
    std::span<const std::uint8_t> bytes);

/// Referral: "ask that server instead" — the route (from the requester)
/// to the next region server and its transport entity.
struct Referral {
  IssuedRoute server_route;
  std::uint64_t server_entity = 0;
};
wire::Bytes encode_referral(const Referral& referral);

/// A query response is either routes or a referral.
struct QueryResponse {
  std::vector<IssuedRoute> routes;
  std::optional<Referral> referral;
};
std::optional<QueryResponse> decode_query_response(
    std::span<const std::uint8_t> bytes);

/// Serves a Directory over VMTP from @p host.
///
/// By default the server answers every name (a root/global server).  With
/// serve_regions() it owns only those naming regions and *refers* other
/// queries to the named peer server ("each server is responsible for
/// maintaining the routing information for immediately higher layer
/// servers and lower level servers within the same region") — the
/// topology database is shared infrastructure, the name space is
/// partitioned.
class DirectoryServerNode {
 public:
  DirectoryServerNode(sim::Simulator& sim, viper::ViperHost& host,
                      Directory& directory,
                      std::uint64_t entity = kDirectoryEntity);

  /// Restricts this server to @p regions; out-of-scope queries are
  /// referred to the server on @p peer_fqdn (entity @p peer_entity).
  void serve_regions(std::set<std::uint32_t> regions, std::string peer_fqdn,
                     std::uint64_t peer_entity);

  [[nodiscard]] std::uint64_t queries_served() const {
    return queries_served_;
  }
  [[nodiscard]] std::uint64_t referrals_issued() const {
    return referrals_issued_;
  }

 private:
  Directory& directory_;
  vmtp::VmtpEndpoint endpoint_;
  std::optional<std::set<std::uint32_t>> scope_;
  std::string peer_fqdn_;
  std::uint64_t peer_entity_ = 0;
  std::uint64_t queries_served_ = 0;
  std::uint64_t referrals_issued_ = 0;
};

/// Issues route queries over the internetwork.  Needs only a bootstrap
/// route to the region server (statically configured, like a resolver
/// address) and this host's topology id.
class RemoteDirectoryClient {
 public:
  using QueryCallback =
      std::function<void(std::vector<IssuedRoute> routes, sim::Time rtt)>;

  RemoteDirectoryClient(sim::Simulator& sim, viper::ViperHost& host,
                        std::uint32_t self_node, IssuedRoute server_route,
                        std::uint64_t client_entity,
                        std::uint64_t server_entity = kDirectoryEntity);

  /// Asks the server for routes to @p name, following referrals between
  /// region servers (bounded depth); empty vector = failure.  The RTT
  /// reported to the callback is the total across all servers visited.
  void query(const std::string& name, QueryOptions options,
             QueryCallback callback);

  [[nodiscard]] std::uint64_t referrals_followed() const {
    return referrals_followed_;
  }

 private:
  void query_at(const IssuedRoute& server_route,
                std::uint64_t server_entity, const std::string& name,
                QueryOptions options, int depth, sim::Time rtt_so_far,
                QueryCallback callback);

  std::uint32_t self_node_;
  IssuedRoute server_route_;
  std::uint64_t server_entity_;
  vmtp::VmtpEndpoint endpoint_;
  std::uint64_t referrals_followed_ = 0;
};

}  // namespace srp::dir
