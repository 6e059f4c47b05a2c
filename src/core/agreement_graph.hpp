// The agreement graph: who may use whose resources, and by how much (§2.2).
//
// An agreement is a tuple [lb_ij, ub_ij] giving principal j access to
// principal i's resources over a time window: lb is the guaranteed share
// during overload, ub the best-effort ceiling. Unlike classic reservation
// systems, lb resources are not set aside — others may use them while j is
// idle (§2.2); the schedulers in src/sched realize that property.
#pragma once

#include <string>
#include <vector>

#include "core/principal.hpp"
#include "util/matrix.hpp"

namespace sharegrid::core {

/// A direct agreement: `user` may consume between lb and ub (fractions of
/// `owner`'s currency) of owner's resources.
struct Agreement {
  PrincipalId owner = kNoPrincipal;
  PrincipalId user = kNoPrincipal;
  double lower_bound = 0.0;  ///< lb: guaranteed fraction under overload.
  double upper_bound = 0.0;  ///< ub: best-effort ceiling.
};

/// Mutable container of principals and the direct agreements among them.
///
/// Invariants enforced on mutation:
///  - 0 <= lb <= ub <= 1 for every agreement;
///  - no self-agreements;
///  - sum of lower bounds issued by any one principal <= 1 (a principal
///    cannot guarantee away more than all of its currency).
class AgreementGraph {
 public:
  /// Registers a principal; returns its id. Capacity is in requests/second.
  PrincipalId add_principal(std::string name, double capacity);

  /// Creates or replaces the direct agreement owner -> user.
  /// Pass lb = ub = 0 to remove an agreement.
  void set_agreement(PrincipalId owner, PrincipalId user, double lower_bound,
                     double upper_bound);

  std::size_t size() const { return principals_.size(); }
  const Principal& principal(PrincipalId id) const;
  const std::string& name(PrincipalId id) const { return principal(id).name; }
  double capacity(PrincipalId id) const { return principal(id).capacity; }

  /// Adjusts a principal's physical capacity (agreements are interpreted
  /// dynamically, §2.2: changed resource levels flow through to others).
  void set_capacity(PrincipalId id, double capacity);

  double lower_bound(PrincipalId owner, PrincipalId user) const;
  double upper_bound(PrincipalId owner, PrincipalId user) const;

  /// Sum of lower bounds issued by @p owner (the L_i of DESIGN.md §2).
  double issued_lower_bound(PrincipalId owner) const;

  /// All non-trivial agreements (ub > 0).
  std::vector<Agreement> agreements() const;

  /// Looks a principal up by name; kNoPrincipal if absent.
  PrincipalId find(const std::string& name) const;

 private:
  void check_id(PrincipalId id) const;

  std::vector<Principal> principals_;
  Matrix lower_;  // lower_(owner, user)
  Matrix upper_;  // upper_(owner, user)
};

}  // namespace sharegrid::core
