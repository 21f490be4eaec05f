#pragma once

#include <memory>

#include "core/mapper.hpp"
#include "core/mapper_registry.hpp"
#include "core/portfolio.hpp"
#include "runtime/admission.hpp"
#include "runtime/defrag.hpp"
#include "shapes/library.hpp"

namespace rtsm::runtime {

/// Configuration surface of the admission engine (the pool tuning lives
/// separately in ConcurrentOptions). Designated initializers keep call
/// sites readable:
///
///   ConcurrentRuntimeManager manager(platform,
///                                    {.mapper = mapper, .shapes = shapes});
///
/// Every field has a working default; `ConcurrentRuntimeManager(platform,
/// {})` is a paper-faithful manager running the spatial mapper under
/// first-fit admission.
struct ManagerOptions {
  /// Primary mapper: the single planning strategy when the portfolio is
  /// disabled, and the unbudgeted fallback when a race produces no winner.
  /// Null defaults to core::SpatialMapper (the paper's run-time strategy).
  std::shared_ptr<const core::Mapper> mapper;

  /// Drop-or-park decision for failed admissions. Null defaults to
  /// FirstFitAdmission (failures are rejected, never parked).
  std::shared_ptr<const AdmissionPolicy> policy;

  /// Defragmentation policy (see runtime/defrag.hpp).
  DefragOptions defrag = {};

  /// Preemption tuning (see runtime/admission.hpp).
  PreemptionOptions preemption = {};

  /// Shape library for hot-path admission (see shapes/library.hpp); may be
  /// shared across managers. Null disables the path.
  std::shared_ptr<shapes::ShapeLibrary> shapes;

  /// Portfolio admission (see core/portfolio.hpp): on a shape-library
  /// miss, race these registry strategies on independent state snapshots
  /// and commit the winner through the ordinary validate/commit path.
  /// Disabled while `strategies` is empty.
  core::PortfolioOptions portfolio = {};

  /// Registry the portfolio strategies are resolved from (typically
  /// baselines::builtin_mappers(), possibly extended). Only consulted when
  /// the portfolio is enabled; the manager throws rtsm::Error at
  /// construction when it is missing or names an unknown strategy then.
  std::shared_ptr<const core::MapperRegistry> registry;
};

}  // namespace rtsm::runtime
