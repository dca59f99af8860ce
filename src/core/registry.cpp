#include "core/registry.hpp"

#include "core/analysis.hpp"
#include "support/panic.hpp"

namespace concert {

MethodId MethodRegistry::declare(MethodDecl decl) {
  CONCERT_CHECK(!finalized_, "registry already finalized; cannot declare " << decl.name);
  CONCERT_CHECK(decl.seq != nullptr, "method " << decl.name << " missing sequential version");
  CONCERT_CHECK(decl.par != nullptr, "method " << decl.name << " missing parallel version");
  MethodInfo info;
  static_cast<MethodDecl&>(info) = std::move(decl);
  methods_.push_back(std::move(info));
  return static_cast<MethodId>(methods_.size() - 1);
}

void MethodRegistry::add_callee(MethodId m, MethodId callee, bool forwards) {
  CONCERT_CHECK(!finalized_, "registry already finalized");
  // An edge to an unregistered method would silently corrupt the blocking
  // analysis (the fixpoint would never see the callee's facts), so both
  // endpoints must already be declared — use declare() first and wire
  // recursive edges afterwards.
  CONCERT_CHECK(m < methods_.size(),
                "add_callee: caller id " << m << " is not a registered method ("
                                         << methods_.size() << " declared)");
  CONCERT_CHECK(callee < methods_.size(),
                "add_callee: " << methods_[m].name << " -> " << callee
                               << " targets an unregistered method id ("
                               << methods_.size() << " declared)");
  methods_[m].callees.push_back(callee);
  if (forwards) methods_[m].forwards_to.push_back(callee);
}

void MethodRegistry::add_commutes(MethodId a, MethodId b) {
  CONCERT_CHECK(!finalized_, "registry already finalized");
  CONCERT_CHECK(a < methods_.size() && b < methods_.size(),
                "add_commutes: (" << a << ", " << b << ") references an unregistered method ("
                                  << methods_.size() << " declared)");
  methods_[a].commutes_with.push_back(b);
  if (a != b) methods_[b].commutes_with.push_back(a);
}

void MethodRegistry::add_barrier_separation(MethodId m, MethodId c1, MethodId c2) {
  CONCERT_CHECK(!finalized_, "registry already finalized");
  CONCERT_CHECK(m < methods_.size() && c1 < methods_.size() && c2 < methods_.size(),
                "add_barrier_separation: (" << m << ", " << c1 << ", " << c2
                                            << ") references an unregistered method ("
                                            << methods_.size() << " declared)");
  // The claim only makes sense for waves the method itself spawns: both
  // phases must be declared call edges of m, or the "barrier between them"
  // is about someone else's body.
  const std::vector<MethodId>& callees = methods_[m].callees;
  for (MethodId c : {c1, c2}) {
    bool found = false;
    for (MethodId e : callees) found = found || e == c;
    CONCERT_CHECK(found, "add_barrier_separation: " << methods_[c].name << " is not a callee of "
                                                    << methods_[m].name);
  }
  methods_[m].barrier_separated.emplace_back(c1, c2);
}

void MethodRegistry::add_replier(MethodId banker, MethodId replier) {
  CONCERT_CHECK(!finalized_, "registry already finalized");
  CONCERT_CHECK(banker < methods_.size() && replier < methods_.size(),
                "add_replier: (" << banker << ", " << replier
                                 << ") references an unregistered method ("
                                 << methods_.size() << " declared)");
  // Only a method that keeps its continuation past the request can bank a
  // reply obligation for someone else to discharge; anything else already
  // replies on the request path and the fact would be meaningless.
  CONCERT_CHECK(methods_[banker].uses_continuation,
                "add_replier: banker " << methods_[banker].name
                                       << " does not declare uses_continuation");
  methods_[banker].repliers.push_back(replier);
}

void MethodRegistry::seal() {
  CONCERT_CHECK(!finalized_, "registry finalized twice");
  analyze_schemas(methods_);
  finalized_ = true;
  // Flatten the analyzed registry into per-mode dispatch tables so the
  // invoke fast path never walks MethodInfo (or re-derives the effective
  // schema) at run time. The arrays are immutable hereafter, so nodes cache
  // raw pointers into them.
  for (std::size_t m = 0; m < kExecModeCount; ++m) {
    const ExecMode mode = static_cast<ExecMode>(m);
    std::vector<DispatchEntry>& tab = dispatch_[m];
    tab.resize(methods_.size());
    for (std::size_t i = 0; i < methods_.size(); ++i) {
      const MethodInfo& mi = methods_[i];
      DispatchEntry& e = tab[i];
      e.seq = mi.seq;
      e.par = mi.par;
      e.schema = effective_schema(static_cast<MethodId>(i), mode);
      e.locks_self = mi.locks_self;
      e.variadic = mi.variadic;
      e.multi_return = mi.multi_return;
      e.arg_count = mi.arg_count;
      e.frame_slots = mi.frame_slots;
    }
  }
}

const DispatchEntry* MethodRegistry::dispatch_table(ExecMode mode) const {
  CONCERT_CHECK(finalized_, "dispatch_table before seal()");
  const std::size_t m = static_cast<std::size_t>(mode);
  CONCERT_CHECK(m < kExecModeCount, "bad exec mode " << m);
  return dispatch_[m].data();
}

const MethodInfo& MethodRegistry::info(MethodId m) const {
  CONCERT_CHECK(m < methods_.size(), "bad method id " << m);
  return methods_[m];
}

MethodId MethodRegistry::find(const std::string& name) const {
  for (std::size_t i = 0; i < methods_.size(); ++i) {
    if (methods_[i].name == name) return static_cast<MethodId>(i);
  }
  return kInvalidMethod;
}

std::string method_name_or_id(const std::vector<MethodInfo>& methods, MethodId m) {
  if (m < methods.size() && !methods[m].name.empty()) return methods[m].name;
  std::string out = "#";
  out.append(std::to_string(m));
  return out;
}

}  // namespace concert
