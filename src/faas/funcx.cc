#include "faas/funcx.h"

#include "flow/pyapp.h"
#include "obs/recorder.h"
#include "pysrc/imports.h"
#include "pysrc/parse_cache.h"
#include "serde/pickle.h"
#include "util/strings.h"

namespace lfm::faas {

namespace {
obs::Count faas_functions_registered{"faas.functions_registered"};
obs::Count faas_invocations{"faas.invocations"};
}  // namespace

FunctionId FunctionRegistry::register_function(const std::string& name,
                                               monitor::TaskFn fn,
                                               std::vector<std::string> dependencies,
                                               monitor::ResourceLimits limits) {
  RegisteredFunction rf;
  rf.id = strformat("fn-%06lld", static_cast<long long>(next_id_++));
  rf.name = name;
  rf.fn = std::move(fn);
  rf.dependencies = std::move(dependencies);
  rf.limits = limits;

  // Serialize the descriptor (name + dependency list) the way funcX pickles
  // the function payload at registration time.
  serde::ValueDict descriptor;
  descriptor["name"] = serde::Value(name);
  serde::ValueList deps;
  for (const auto& d : rf.dependencies) deps.push_back(serde::Value(d));
  descriptor["dependencies"] = serde::Value(std::move(deps));
  serde::dumps_into(serde::Value(std::move(descriptor)), rf.serialized);

  const FunctionId id = rf.id;
  if (obs::Recorder::enabled()) {
    obs::Recorder& r = obs::Recorder::global();
    r.instant(obs::kPidHost, 0, r.now(), "fn-register", "faas", "name", name,
              "dependencies", static_cast<double>(rf.dependencies.size()));
    faas_functions_registered.add();
  }
  functions_.emplace(id, std::move(rf));
  return id;
}

FunctionId FunctionRegistry::register_python_function(
    const std::string& module_source, const std::string& function_name,
    monitor::ResourceLimits limits) {
  // Derive the dependency list from the function's own imports, as funcX
  // derives container requirements from the registered function. The module
  // parses through the shared cache: python_app below reuses the same AST.
  const auto module = pysrc::parse_module_shared(module_source);
  const auto scan = pysrc::scan_function(*module, function_name);
  std::vector<std::string> dependencies;
  for (const auto& package :
       scan.external_packages(pysrc::default_stdlib_modules())) {
    dependencies.push_back(package);
  }
  flow::PythonAppOptions options;
  options.limits = limits;
  flow::App app = flow::python_app(module_source, function_name, options);
  return register_function(function_name, std::move(app.fn),
                           std::move(dependencies), limits);
}

const RegisteredFunction& FunctionRegistry::get(const FunctionId& id) const {
  const auto it = functions_.find(id);
  if (it == functions_.end()) throw Error("funcx: unknown function id " + id);
  return it->second;
}

bool FunctionRegistry::contains(const FunctionId& id) const {
  return functions_.count(id) > 0;
}

flow::Future Endpoint::invoke(const RegisteredFunction& fn, serde::Value args) {
  ++invocations_;
  if (obs::Recorder::enabled()) {
    obs::Recorder& r = obs::Recorder::global();
    r.instant(obs::kPidHost, 0, r.now(), "fn-invoke", "faas", "endpoint", name_);
    faas_invocations.add();
  }
  flow::Future future;
  flow::App app;
  app.name = fn.name;
  app.fn = fn.fn;
  app.limits = fn.limits;
  executor_.execute(app, std::move(args), [future](monitor::TaskOutcome outcome) {
    future.fulfill(std::move(outcome));
  });
  return future;
}

void FuncXService::add_endpoint(std::shared_ptr<Endpoint> endpoint) {
  const std::string name = endpoint->name();
  if (endpoints_.count(name) > 0) throw Error("funcx: duplicate endpoint " + name);
  endpoints_.emplace(name, std::move(endpoint));
}

Endpoint& FuncXService::endpoint(const std::string& name) {
  const auto it = endpoints_.find(name);
  if (it == endpoints_.end()) throw Error("funcx: unknown endpoint " + name);
  return *it->second;
}

flow::Future FuncXService::submit(const FunctionId& function,
                                  const std::string& endpoint_name,
                                  serde::Value args) {
  const RegisteredFunction& fn = registry_.get(function);
  return endpoint(endpoint_name).invoke(fn, std::move(args));
}

std::vector<flow::Future> FuncXService::submit_batch(
    const FunctionId& function, const std::string& endpoint_name,
    std::vector<serde::Value> args_batch) {
  std::vector<flow::Future> futures;
  futures.reserve(args_batch.size());
  const RegisteredFunction& fn = registry_.get(function);
  Endpoint& ep = endpoint(endpoint_name);
  for (auto& args : args_batch) {
    futures.push_back(ep.invoke(fn, std::move(args)));
  }
  return futures;
}

void FuncXService::drain_all() {
  for (auto& [_, ep] : endpoints_) ep->drain();
}

}  // namespace lfm::faas
