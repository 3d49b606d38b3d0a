// Compatibility shim for the repo benchmark only. repobench/workloads.cc
// still reports a `backend.matmul_gflops` probe through Backend::Create("ref")
// and Backend::MatMul, and the benchmark changes only in commits of its own.
// This header keeps exactly that surface and forwards to tensor::MatMul, the
// one float kernel path. Nothing outside repobench/ includes it; delete it
// together with that probe at the next change to the benchmark.
#ifndef BOOTLEG_BACKEND_BACKEND_H_
#define BOOTLEG_BACKEND_BACKEND_H_

#include <memory>
#include <string>

#include "tensor/tensor.h"
#include "util/status.h"

namespace bootleg::backend {

class Backend {
 public:
  static util::StatusOr<std::shared_ptr<Backend>> Create(
      const std::string& spec) {
    if (spec != "ref") {
      return util::Status::InvalidArgument("unknown backend '" + spec + "'");
    }
    return std::make_shared<Backend>();
  }

  tensor::Tensor MatMul(const tensor::Tensor& a,
                        const tensor::Tensor& b) const {
    return tensor::MatMul(a, b);
  }
};

}  // namespace bootleg::backend

#endif  // BOOTLEG_BACKEND_BACKEND_H_
