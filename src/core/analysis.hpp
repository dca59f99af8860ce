// The compiler stand-in: global flow analysis selecting invocation schemas.
//
// The Concert compiler "performs a global flow analysis which conservatively
// determines the blocking and continuation requirements of methods and uses
// that information to select the appropriate schema" (Sec. 3.2). We implement
// the same analysis over the declared call graph:
//
//   may_block(m)  = m.blocks_locally  OR  any callee may_block
//   needs_cont(m) = m.uses_continuation OR m forwards its continuation
//                   (both ends of a forwarding edge require the CP interface)
//
// computed as a least fixpoint (the call graph may contain recursion and
// mutual recursion), then:
//
//   schema(m) = CP  if needs_cont(m)
//             = MB  if may_block(m)
//             = NB  otherwise
#pragma once

#include <vector>

#include "core/registry.hpp"

namespace concert {

/// The analysis result before it is committed into MethodInfo: one
/// may-block / needs-continuation bit per method.
struct FlowFacts {
  std::vector<std::uint8_t> may_block;
  std::vector<std::uint8_t> needs_continuation;
};

/// Pure recomputation of the flow analysis from the declared facts. Does not
/// mutate `methods` and never panics: out-of-range call edges are simply
/// ignored (verify::lint_methods reports them as dangling-edge diagnostics;
/// analyze_schemas rejects them up front). This is the single implementation
/// of the fixpoint — the linter cross-checks a registry's committed schemas
/// against exactly the algorithm that produced them.
FlowFacts compute_flow_facts(const std::vector<MethodInfo>& methods);

/// The schema implied by a method's computed flow facts (paper Sec. 3.2):
/// CP if it needs its continuation, MB if it may block, NB otherwise.
Schema schema_from_facts(bool may_block, bool needs_continuation);

/// Runs the analysis in place, filling MethodInfo::{may_block,
/// needs_continuation, schema} for every method.
void analyze_schemas(std::vector<MethodInfo>& methods);

}  // namespace concert
