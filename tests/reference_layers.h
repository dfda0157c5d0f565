// Plain per-example reference passes of every layer type: one example, no
// lanes, no SIMD and no blocking, each output element accumulated in the
// order the lane kernels contract to keep (see the kernel comments in
// src/nn). LaneKernelsTest compares the lane entry points at several widths
// against these with exact float equality.

#ifndef DPAUDIT_TESTS_REFERENCE_LAYERS_H_
#define DPAUDIT_TESTS_REFERENCE_LAYERS_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "nn/activations.h"
#include "nn/channel_norm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/layer.h"
#include "nn/pooling.h"
#include "tensor/tensor.h"
#include "util/logging.h"

namespace dpaudit {
namespace reference {

/// One example's forward and backward pass through a layer.
struct ExamplePass {
  Tensor output;
  Tensor grad_input;
  std::vector<Tensor> param_grads;  // parallel to Layer::Params()
};

/// y = W x + b; dW = g x^T, db = g, dx = W^T g.
inline void DensePass(const Tensor& weight, const Tensor& bias,
                      const Tensor& x, const Tensor& g, ExamplePass* pass) {
  const size_t out = weight.dim(0);
  const size_t in = weight.dim(1);
  DPAUDIT_CHECK_EQ(x.size(), in);
  pass->output = Tensor({out});
  for (size_t o = 0; o < out; ++o) {
    double acc = bias[o];
    for (size_t i = 0; i < in; ++i) {
      acc += static_cast<double>(weight[o * in + i]) * x[i];
    }
    pass->output[o] = static_cast<float>(acc);
  }
  Tensor dw({out, in});
  Tensor db({out});
  pass->grad_input = Tensor(x.shape());
  for (size_t o = 0; o < out; ++o) {
    db[o] = g[o];
    for (size_t i = 0; i < in; ++i) {
      dw[o * in + i] = g[o] * x[i];
      pass->grad_input[i] += g[o] * weight[o * in + i];
    }
  }
  pass->param_grads = {dw, db};
}

/// Valid-padding, stride-1 convolution of x [C, H, W] with weight
/// [F, C, k, k]: the forward chain is bias, then channels ascending with
/// taps in (ky, kx) order; the input gradient is the (f, ky, kx) scatter.
inline void ConvPass(const Tensor& weight, const Tensor& bias,
                     const Tensor& x, const Tensor& g, ExamplePass* pass) {
  const size_t F = weight.dim(0);
  const size_t C = weight.dim(1);
  const size_t k = weight.dim(2);
  const size_t h = x.dim(1);
  const size_t w = x.dim(2);
  const size_t oh = h - k + 1;
  const size_t ow = w - k + 1;
  DPAUDIT_CHECK_EQ(x.dim(0), C);
  pass->output = Tensor({F, oh, ow});
  for (size_t f = 0; f < F; ++f) {
    for (size_t y = 0; y < oh; ++y) {
      for (size_t xo = 0; xo < ow; ++xo) {
        float acc = bias[f];
        for (size_t c = 0; c < C; ++c) {
          for (size_t ky = 0; ky < k; ++ky) {
            for (size_t kx = 0; kx < k; ++kx) {
              acc += weight[((f * C + c) * k + ky) * k + kx] *
                     x[(c * h + y + ky) * w + xo + kx];
            }
          }
        }
        pass->output[(f * oh + y) * ow + xo] = acc;
      }
    }
  }
  Tensor dw(weight.shape());
  Tensor db({F});
  pass->grad_input = Tensor(x.shape());
  for (size_t f = 0; f < F; ++f) {
    double sum = 0.0;
    for (size_t i = 0; i < oh * ow; ++i) sum += g[f * oh * ow + i];
    db[f] = static_cast<float>(sum);
    for (size_t c = 0; c < C; ++c) {
      std::vector<double> acc(k * k, 0.0);
      for (size_t y = 0; y < oh; ++y) {
        for (size_t xo = 0; xo < ow; ++xo) {
          const double go = g[(f * oh + y) * ow + xo];
          for (size_t ky = 0; ky < k; ++ky) {
            for (size_t kx = 0; kx < k; ++kx) {
              acc[ky * k + kx] += go * x[(c * h + y + ky) * w + xo + kx];
            }
          }
        }
      }
      for (size_t t = 0; t < k * k; ++t) {
        dw[(f * C + c) * k * k + t] = static_cast<float>(acc[t]);
      }
      for (size_t ky = 0; ky < k; ++ky) {
        for (size_t kx = 0; kx < k; ++kx) {
          const float kval = weight[((f * C + c) * k + ky) * k + kx];
          for (size_t y = 0; y < oh; ++y) {
            for (size_t xo = 0; xo < ow; ++xo) {
              pass->grad_input[(c * h + y + ky) * w + xo + kx] +=
                  g[(f * oh + y) * ow + xo] * kval;
            }
          }
        }
      }
    }
  }
  pass->param_grads = {dw, db};
}

/// Instance normalization of x [C, H, W] over each channel's H*W values,
/// then gamma * x_hat + beta; every statistic is a double chain in
/// ascending spatial order.
inline void ChannelNormPass(const Tensor& gamma, const Tensor& beta,
                            double epsilon, const Tensor& x, const Tensor& g,
                            ExamplePass* pass) {
  const size_t channels = x.dim(0);
  const size_t m = x.dim(1) * x.dim(2);
  pass->output = Tensor(x.shape());
  pass->grad_input = Tensor(x.shape());
  Tensor dgamma({channels});
  Tensor dbeta({channels});
  std::vector<float> x_hat(m);
  for (size_t c = 0; c < channels; ++c) {
    const float* xc = x.data() + c * m;
    double mean = 0.0;
    for (size_t i = 0; i < m; ++i) mean += xc[i];
    mean /= static_cast<double>(m);
    double var = 0.0;
    for (size_t i = 0; i < m; ++i) {
      const double d = xc[i] - mean;
      var += d * d;
    }
    var /= static_cast<double>(m);
    const double inv_std = 1.0 / std::sqrt(var + epsilon);
    for (size_t i = 0; i < m; ++i) {
      const double xhat = (xc[i] - mean) * inv_std;
      x_hat[i] = static_cast<float>(xhat);
      pass->output[c * m + i] = static_cast<float>(gamma[c] * xhat + beta[c]);
    }
    const float* gc = g.data() + c * m;
    double sum_g = 0.0;
    double sum_gx = 0.0;
    for (size_t i = 0; i < m; ++i) {
      sum_g += gc[i];
      sum_gx += static_cast<double>(gc[i]) * x_hat[i];
    }
    dbeta[c] = static_cast<float>(sum_g);
    dgamma[c] = static_cast<float>(sum_gx);
    // dL/dx = gamma * inv_std / m * (m*g - sum(g) - x_hat * sum(g*x_hat)).
    const double scale = gamma[c] * inv_std / static_cast<double>(m);
    for (size_t i = 0; i < m; ++i) {
      pass->grad_input[c * m + i] = static_cast<float>(
          scale *
          (static_cast<double>(m) * gc[i] - sum_g - x_hat[i] * sum_gx));
    }
  }
  pass->param_grads = {dgamma, dbeta};
}

/// pool x pool max pooling, stride pool, valid mode: candidates in (py, px)
/// order with a strict greater-than, so ties keep the first maximum; the
/// input gradient routes each output gradient to its argmax.
inline void MaxPoolPass(size_t pool, const Tensor& x, const Tensor& g,
                        ExamplePass* pass) {
  const size_t c = x.dim(0);
  const size_t h = x.dim(1);
  const size_t w = x.dim(2);
  const size_t oh = h / pool;
  const size_t ow = w / pool;
  pass->output = Tensor({c, oh, ow});
  pass->grad_input = Tensor(x.shape());
  size_t cell = 0;
  for (size_t ch = 0; ch < c; ++ch) {
    const float* plane = x.data() + ch * h * w;
    for (size_t y = 0; y < oh; ++y) {
      for (size_t xo = 0; xo < ow; ++xo, ++cell) {
        const size_t base = y * pool * w + xo * pool;
        float best = plane[base];
        size_t best_off = base;
        for (size_t py = 0; py < pool; ++py) {
          for (size_t px = 0; px < pool; ++px) {
            const size_t off = base + py * w + px;
            if (plane[off] > best) {
              best = plane[off];
              best_off = off;
            }
          }
        }
        pass->output[cell] = best;
        pass->grad_input[ch * h * w + best_off] += g[cell];
      }
    }
  }
}

/// max(0, x); the gradient passes where x > 0.
inline void ReluPass(const Tensor& x, const Tensor& g, ExamplePass* pass) {
  pass->output = Tensor(x.shape());
  pass->grad_input = Tensor(x.shape());
  for (size_t i = 0; i < x.size(); ++i) {
    pass->output[i] = x[i] > 0.0f ? x[i] : 0.0f;
    pass->grad_input[i] = x[i] <= 0.0f ? 0.0f : g[i];
  }
}

/// The reference pass of `layer` (any layer type of src/nn) on one example
/// `x` with output gradient `g`, at the layer's current parameters.
inline ExamplePass Pass(Layer& layer, const Tensor& x, const Tensor& g) {
  ExamplePass pass;
  const std::vector<Tensor*> params = layer.Params();
  if (dynamic_cast<Dense*>(&layer) != nullptr) {
    DensePass(*params[0], *params[1], x, g, &pass);
  } else if (dynamic_cast<Conv2d*>(&layer) != nullptr) {
    ConvPass(*params[0], *params[1], x, g, &pass);
  } else if (auto* norm = dynamic_cast<ChannelNorm*>(&layer)) {
    ChannelNormPass(*params[0], *params[1], norm->epsilon(), x, g, &pass);
  } else if (auto* pool = dynamic_cast<MaxPool2d*>(&layer)) {
    MaxPoolPass(pool->pool(), x, g, &pass);
  } else if (dynamic_cast<Relu*>(&layer) != nullptr) {
    ReluPass(x, g, &pass);
  } else {
    DPAUDIT_CHECK(false) << "no reference pass for " << layer.Name();
  }
  return pass;
}

}  // namespace reference
}  // namespace dpaudit

#endif  // DPAUDIT_TESTS_REFERENCE_LAYERS_H_
