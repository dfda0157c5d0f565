// Stateless activation layers.

#ifndef DPAUDIT_NN_ACTIVATIONS_H_
#define DPAUDIT_NN_ACTIVATIONS_H_

#include <memory>
#include <string>

#include "nn/layer.h"

namespace dpaudit {

/// Element-wise max(0, x). Elementwise, so a lane tensor is just a longer
/// flat array: one loop serves every lane count.
class Relu : public Layer {
 public:
  void ForwardBatchInto(const Tensor& input, size_t lanes,
                        Tensor* output) override;
  void BackwardBatchInto(const Tensor& grad_output, size_t lanes,
                         Tensor* grad_input) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Relu>();
  }
  std::string Name() const override { return "relu"; }

 private:
  // Cached pointer to the forward input (see the lifetime contract in
  // layer.h); the caller keeps it alive through backward.
  const Tensor* last_input_ = nullptr;
};

}  // namespace dpaudit

#endif  // DPAUDIT_NN_ACTIVATIONS_H_
