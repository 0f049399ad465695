// Emits the generated C++ for one of the built-in FLICK programs to a file.
// The test build runs it to produce the TUs that codegen_test compiles with
// -Werror and executes.
//
//   codegen_emit <memcached|resp> <out.cc>
#include <cstdio>
#include <fstream>
#include <string>

#include "lang/codegen_cpp.h"
#include "lang/compile.h"
#include "services/dsl_service.h"

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <memcached|resp> <out.cc>\n", argv[0]);
    return 2;
  }
  const std::string which = argv[1];
  const char* source = nullptr;
  if (which == "memcached") {
    source = flick::services::kMemcachedRouterSource;
  } else if (which == "resp") {
    source = flick::services::kRespRouterSource;
  } else {
    std::fprintf(stderr, "unknown program '%s'\n", which.c_str());
    return 2;
  }

  auto compiled = flick::lang::CompileSource(source);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n", compiled.status().ToString().c_str());
    return 1;
  }
  std::ofstream out(argv[2]);
  if (!out) {
    std::fprintf(stderr, "cannot open '%s'\n", argv[2]);
    return 1;
  }
  out << flick::lang::GenerateCpp(**compiled);
  return out.good() ? 0 : 1;
}
