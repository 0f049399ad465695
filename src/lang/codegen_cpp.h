// C++ code generation (extension).
//
// The paper's compiler emits C++ that links against the platform runtime
// (§5: "The FLICK compiler translates an input FLICK program to C++"). This
// pass emits a compilable translation unit: grammar-unit builders for every
// type, one handler factory per proc that fills a lang::ProcPlan from the
// lowering pass's rule plans (lang/lower.h) with shapes, field indices,
// compare values and dict names baked in as constants and hands it to
// lang::MakePlanHandler, and GraphBuilder wiring for the canonical client +
// backend-array proc shape. The generated code prints no dispatch logic of
// its own: rule semantics live only in lower.cc. Inputs without a plan route
// through an optional fallback handler the caller supplies (typically the
// interpreter).
#ifndef FLICK_LANG_CODEGEN_CPP_H_
#define FLICK_LANG_CODEGEN_CPP_H_

#include <string>

#include "lang/compile.h"

namespace flick::lang {

// Renders the whole program as one self-contained C++ translation unit in
// namespace flick::flickgen. Compiles against the project headers with no
// further editing: the test build generates the built-in programs' TUs and
// links them into codegen_test with -Werror.
std::string GenerateCpp(const CompiledProgram& program);

}  // namespace flick::lang

#endif  // FLICK_LANG_CODEGEN_CPP_H_
