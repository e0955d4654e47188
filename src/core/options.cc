#include "core/options.h"

namespace cirank {

SearchOptions MergeOverrides(const SearchOptions& base,
                             const SearchOverrides& overrides) {
  SearchOptions merged = base;
  if (overrides.k.has_value()) merged.k = *overrides.k;
  if (overrides.max_diameter.has_value()) {
    merged.max_diameter = *overrides.max_diameter;
  }
  if (overrides.max_expansions.has_value()) {
    merged.max_expansions = *overrides.max_expansions;
  }
  if (overrides.strict_merge_rule.has_value()) {
    merged.strict_merge_rule = *overrides.strict_merge_rule;
  }
  if (overrides.executor.has_value()) merged.executor = *overrides.executor;
  if (overrides.deadline_ms.has_value()) {
    merged.deadline_ms = *overrides.deadline_ms;
  }
  if (overrides.candidate_budget.has_value()) {
    merged.candidate_budget = *overrides.candidate_budget;
  }
  if (overrides.ranker.has_value()) merged.ranker = *overrides.ranker;
  if (overrides.order_by.has_value()) merged.order_by = *overrides.order_by;
  if (overrides.composite_rwmp_weight.has_value()) {
    merged.composite_rwmp_weight = *overrides.composite_rwmp_weight;
  }
  if (overrides.composite_text_weight.has_value()) {
    merged.composite_text_weight = *overrides.composite_text_weight;
  }
  if (overrides.bounds != nullptr) merged.bounds = overrides.bounds;
  return merged;
}

}  // namespace cirank
