// funcX-style FaaS layer (paper §VI.C.4).
//
// funcX registers functions once, then dispatches serialized invocations to
// endpoints. In the paper's experiment, funcX's container-based execution is
// replaced with LFMs ("using LFMs in place of containers"); this module
// mirrors that shape: a registry of serialized functions + dependency lists,
// endpoints backed by a flow::Executor, and a service that routes
// invocations and returns futures.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flow/dfk.h"
#include "flow/future.h"
#include "monitor/lfm.h"

namespace lfm::faas {

using FunctionId = std::string;

struct RegisteredFunction {
  FunctionId id;
  std::string name;
  monitor::TaskFn fn;
  serde::Bytes serialized;              // pickled function descriptor
  std::vector<std::string> dependencies;  // user-supplied, as in funcX
  monitor::ResourceLimits limits;
};

class FunctionRegistry {
 public:
  // Register a function; the descriptor is serialized exactly once (the
  // funcX model: functions are shipped by id afterwards).
  FunctionId register_function(const std::string& name, monitor::TaskFn fn,
                               std::vector<std::string> dependencies = {},
                               monitor::ResourceLimits limits = {});

  // Register a function from PYTHON SOURCE — the real funcX registration
  // path: the named function is extracted from the module, its import list
  // becomes the dependency list, and invocations run the shipped source in
  // the mini-Python interpreter (inside the endpoint's LFM executor).
  FunctionId register_python_function(const std::string& module_source,
                                      const std::string& function_name,
                                      monitor::ResourceLimits limits = {});

  const RegisteredFunction& get(const FunctionId& id) const;
  bool contains(const FunctionId& id) const;
  size_t size() const { return functions_.size(); }

 private:
  std::map<FunctionId, RegisteredFunction> functions_;
  int64_t next_id_ = 1;
};

// An endpoint executes invocations of registered functions on its executor.
class Endpoint {
 public:
  Endpoint(std::string name, flow::Executor& executor)
      : name_(std::move(name)), executor_(executor) {}

  const std::string& name() const { return name_; }

  flow::Future invoke(const RegisteredFunction& fn, serde::Value args);
  void drain() { executor_.drain(); }

  int64_t invocations() const { return invocations_; }

 private:
  std::string name_;
  flow::Executor& executor_;
  int64_t invocations_ = 0;
};

// The service ties registry and endpoints together, funcX-API style.
class FuncXService {
 public:
  FunctionRegistry& registry() { return registry_; }

  void add_endpoint(std::shared_ptr<Endpoint> endpoint);
  Endpoint& endpoint(const std::string& name);

  // Submit one invocation.
  flow::Future submit(const FunctionId& function, const std::string& endpoint_name,
                      serde::Value args);
  // funcX batch interface: many argument sets in one call.
  std::vector<flow::Future> submit_batch(const FunctionId& function,
                                         const std::string& endpoint_name,
                                         std::vector<serde::Value> args_batch);

  void drain_all();

 private:
  FunctionRegistry registry_;
  std::map<std::string, std::shared_ptr<Endpoint>> endpoints_;
};

}  // namespace lfm::faas
