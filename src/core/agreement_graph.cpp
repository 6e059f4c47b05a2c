#include "core/agreement_graph.hpp"

#include <utility>

#include "util/assert.hpp"

namespace sharegrid::core {

PrincipalId AgreementGraph::add_principal(std::string name, double capacity) {
  SHAREGRID_EXPECTS(capacity >= 0.0);
  SHAREGRID_EXPECTS(find(name) == kNoPrincipal);
  const PrincipalId id = principals_.size();
  principals_.push_back({std::move(name), capacity});

  // Grow the agreement matrices, preserving existing entries.
  Matrix lower(id + 1, id + 1, 0.0);
  Matrix upper(id + 1, id + 1, 0.0);
  for (std::size_t i = 0; i < id; ++i) {
    for (std::size_t j = 0; j < id; ++j) {
      lower(i, j) = lower_(i, j);
      upper(i, j) = upper_(i, j);
    }
  }
  lower_ = std::move(lower);
  upper_ = std::move(upper);
  return id;
}

void AgreementGraph::set_agreement(PrincipalId owner, PrincipalId user,
                                   double lower_bound, double upper_bound) {
  check_id(owner);
  check_id(user);
  SHAREGRID_EXPECTS(owner != user);
  SHAREGRID_EXPECTS(lower_bound >= 0.0);
  SHAREGRID_EXPECTS(lower_bound <= upper_bound);
  SHAREGRID_EXPECTS(upper_bound <= 1.0);

  const double issued_without =
      issued_lower_bound(owner) - lower_(owner, user);
  SHAREGRID_EXPECTS(issued_without + lower_bound <= 1.0 + 1e-12);

  lower_(owner, user) = lower_bound;
  upper_(owner, user) = upper_bound;
}

const Principal& AgreementGraph::principal(PrincipalId id) const {
  check_id(id);
  return principals_[id];
}

void AgreementGraph::set_capacity(PrincipalId id, double capacity) {
  check_id(id);
  SHAREGRID_EXPECTS(capacity >= 0.0);
  principals_[id].capacity = capacity;
}

double AgreementGraph::lower_bound(PrincipalId owner, PrincipalId user) const {
  check_id(owner);
  check_id(user);
  return lower_(owner, user);
}

double AgreementGraph::upper_bound(PrincipalId owner, PrincipalId user) const {
  check_id(owner);
  check_id(user);
  return upper_(owner, user);
}

double AgreementGraph::issued_lower_bound(PrincipalId owner) const {
  check_id(owner);
  return lower_.row_sum(owner);
}

std::vector<Agreement> AgreementGraph::agreements() const {
  std::vector<Agreement> out;
  for (PrincipalId i = 0; i < size(); ++i) {
    for (PrincipalId j = 0; j < size(); ++j) {
      if (upper_(i, j) > 0.0)
        out.push_back({i, j, lower_(i, j), upper_(i, j)});
    }
  }
  return out;
}

PrincipalId AgreementGraph::find(const std::string& name) const {
  for (PrincipalId i = 0; i < size(); ++i)
    if (principals_[i].name == name) return i;
  return kNoPrincipal;
}

void AgreementGraph::check_id(PrincipalId id) const {
  SHAREGRID_EXPECTS(id < principals_.size());
}

}  // namespace sharegrid::core
