// The name → factory map behind ExecutorRegistry (core/execution.h) and
// RankerRegistry (core/ranker.h). Each instantiation has one process-wide
// instance, Global(), defined next to the core entries it comes pre-loaded
// with; the baselines add theirs via RegisterBaselineExecutors(). Messages
// name the product with the noun given at construction ("executor",
// "ranker"). Thread-safe.
#ifndef CIRANK_CORE_REGISTRY_H_
#define CIRANK_CORE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"
#include "util/status.h"

namespace cirank {

template <typename Product, typename Env>
class FactoryRegistry {
 public:
  using Factory = std::function<Result<std::unique_ptr<Product>>(const Env&)>;

  static FactoryRegistry& Global();

  // Fails with AlreadyExists-style InvalidArgument on duplicate names.
  [[nodiscard]] Status Register(std::string name, Factory factory)
      CIRANK_EXCLUDES(mu_) {
    if (name.empty()) return Status::InvalidArgument(noun_ + " name is empty");
    if (factory == nullptr) {
      return Status::InvalidArgument(noun_ + " factory is null");
    }
    MutexLock lk(mu_);
    if (!factories_.emplace(std::move(name), std::move(factory)).second) {
      return Status::InvalidArgument(noun_ + " already registered");
    }
    return Status::OK();
  }

  // Fails NotFound, listing the registered names, for an unknown `name`.
  [[nodiscard]] Result<std::unique_ptr<Product>> Create(
      const std::string& name, const Env& env) const CIRANK_EXCLUDES(mu_) {
    Factory factory;
    {
      MutexLock lk(mu_);
      auto it = factories_.find(name);
      if (it != factories_.end()) factory = it->second;
    }
    if (factory == nullptr) {
      std::string known;
      for (const std::string& n : Names()) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      return Status::NotFound("unknown " + noun_ + " '" + name +
                              "' (registered: " + known + ")");
    }
    return factory(env);
  }

  bool Contains(const std::string& name) const CIRANK_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    return factories_.count(name) != 0;
  }

  std::vector<std::string> Names() const CIRANK_EXCLUDES(mu_) {  // sorted
    MutexLock lk(mu_);
    std::vector<std::string> names;
    names.reserve(factories_.size());
    for (const auto& entry : factories_) names.push_back(entry.first);
    return names;
  }

 private:
  explicit FactoryRegistry(std::string noun) : noun_(std::move(noun)) {}
  ~FactoryRegistry() = default;

  const std::string noun_;
  mutable Mutex mu_;
  std::map<std::string, Factory> factories_ CIRANK_GUARDED_BY(mu_);
};

}  // namespace cirank

#endif  // CIRANK_CORE_REGISTRY_H_
