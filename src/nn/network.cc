#include "nn/network.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "nn/activations.h"
#include "nn/channel_norm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "tensor/tensor.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/math_util.h"

namespace dpaudit {

Network& Network::Add(std::unique_ptr<Layer> layer) {
  DPAUDIT_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

void Network::Initialize(Rng& rng) {
  for (auto& layer : layers_) layer->Initialize(rng);
}

Network Network::Clone() const {
  Network copy;
  for (const auto& layer : layers_) copy.Add(layer->Clone());
  return copy;
}

size_t Network::NumParams() const {
  size_t n = 0;
  for (const auto& layer : layers_) {
    for (const Tensor* p : const_cast<Layer&>(*layer).Params()) {
      n += p->size();
    }
  }
  return n;
}

Tensor Network::Forward(const Tensor& input) {
  Tensor activation = input;
  for (auto& layer : layers_) activation = layer->Forward(activation);
  return activation;
}

double Network::ExampleLoss(const Tensor& input, size_t label) {
  Tensor logits = Forward(input);
  return SoftmaxCrossEntropy(logits, label).loss;
}

size_t Network::Predict(const Tensor& input) {
  Tensor logits = Forward(input);
  DPAUDIT_CHECK_GT(logits.size(), 0u);
  size_t best = 0;
  for (size_t i = 1; i < logits.size(); ++i) {
    if (logits[i] > logits[best]) best = i;
  }
  return best;
}

double Network::Accuracy(const std::vector<Tensor>& inputs,
                         const std::vector<size_t>& labels) {
  DPAUDIT_CHECK_EQ(inputs.size(), labels.size());
  DPAUDIT_CHECK(!inputs.empty());
  size_t correct = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (Predict(inputs[i]) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(inputs.size());
}

void Network::ZeroGrads() {
  for (auto& layer : layers_) layer->ZeroGrads();
}

void Network::FlatGradsTo(float* dst) const {
  for (const auto& layer : layers_) {
    for (Tensor* g : const_cast<Layer&>(*layer).Grads()) {
      std::copy(g->data(), g->data() + g->size(), dst);
      dst += g->size();
    }
  }
}

double Network::PerExampleGradientTo(const Tensor& input, size_t label,
                                     GradientWorkspace* ws, float* dst) {
  ZeroGrads();
  // Forward with one activation buffer per layer: every layer's input stays
  // alive and unmodified through the backward sweep, so layers cache
  // pointers to their inputs instead of deep-copying them (layer.h lifetime
  // contract).
  ws->acts.resize(layers_.size());
  const Tensor* cur = &input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->ForwardInto(*cur, &ws->acts[i]);
    cur = &ws->acts[i];
  }
  double loss = SoftmaxCrossEntropyInto(*cur, label, &ws->grad_a);
  const Tensor* gcur = &ws->grad_a;
  Tensor* gnext = &ws->grad_b;
  Tensor* gspare = &ws->grad_a;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    (*it)->BackwardInto(*gcur, gnext);
    gcur = gnext;
    std::swap(gnext, gspare);
  }
  FlatGradsTo(dst);
  return loss;
}

bool Network::SupportsBatchLanes() const {
  if (layers_.empty()) return false;
  for (const auto& layer : layers_) {
    if (!layer->SupportsBatchLanes()) return false;
  }
  return true;
}

void Network::LaneGradientsInto(const Tensor* const* inputs,
                                const size_t* labels, size_t lanes,
                                GradientWorkspace* ws) {
  DPAUDIT_CHECK_GT(lanes, 0u);
  DPAUDIT_CHECK_LE(lanes, kMaxBatchLanes);
  DPAUDIT_CHECK(!layers_.empty());
  PackLanes(inputs, lanes, &ws->lane_input);
  ws->lane_acts.resize(layers_.size());
  const Tensor* cur = &ws->lane_input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->ForwardBatchInto(*cur, lanes, &ws->lane_acts[i]);
    cur = &ws->lane_acts[i];
  }
  SoftmaxCrossEntropyBatchInto(*cur, labels, lanes, &ws->grad_a);
  const Tensor* gcur = &ws->grad_a;
  Tensor* gnext = &ws->grad_b;
  Tensor* gspare = &ws->grad_a;
  for (size_t i = layers_.size(); i-- > 0;) {
    // Layer 0's input gradient would be discarded; skip computing it.
    layers_[i]->BackwardBatchInto(*gcur, lanes, i == 0 ? nullptr : gnext);
    if (i == 0) break;
    gcur = gnext;
    std::swap(gnext, gspare);
  }
  ws->lane_grads.clear();
  ws->lane_grad_ranges.clear();
  size_t range = 0;
  for (const auto& layer : layers_) {
    const size_t first = ws->lane_grads.size();
    layer->AppendLaneGrads(&ws->lane_grads);
    if (ws->lane_grads.size() == first) continue;  // parameterless
    ws->lane_grad_ranges.resize(ws->lane_grads.size(), range++);
  }
}

double Network::PerExampleGradientInto(const Tensor& input, size_t label,
                                       GradientWorkspace* ws) {
  ws->grad.resize(NumParams());
  return PerExampleGradientTo(input, label, ws, ws->grad.data());
}

std::vector<float> Network::PerExampleGradient(const Tensor& input,
                                               size_t label) {
  PerExampleGradientInto(input, label, &scratch_);
  return scratch_.grad;
}

std::vector<float> Network::ClippedGradientSum(
    const std::vector<Tensor>& inputs, const std::vector<size_t>& labels,
    double clip_norm, std::vector<double>* per_example_norms) {
  DPAUDIT_CHECK_EQ(inputs.size(), labels.size());
  DPAUDIT_CHECK_GT(clip_norm, 0.0);
  std::vector<float> sum(NumParams(), 0.0f);
  if (per_example_norms != nullptr) per_example_norms->clear();
  for (size_t j = 0; j < inputs.size(); ++j) {
    PerExampleGradientInto(inputs[j], labels[j], &scratch_);
    const float* grad = scratch_.grad.data();
    double norm = L2Norm(grad, scratch_.grad.size());
    if (per_example_norms != nullptr) per_example_norms->push_back(norm);
    AccumulateScaled(sum.data(), grad, sum.size(), ClipScale(norm, clip_norm));
  }
  return sum;
}

std::vector<Network::ParamRange> Network::LayerParamRanges() const {
  std::vector<ParamRange> ranges;
  size_t offset = 0;
  for (const auto& layer : layers_) {
    size_t layer_size = 0;
    for (Tensor* p : const_cast<Layer&>(*layer).Params()) {
      layer_size += p->size();
    }
    if (layer_size > 0) ranges.push_back({offset, layer_size});
    offset += layer_size;
  }
  return ranges;
}

std::vector<float> Network::PerLayerClippedGradientSum(
    const std::vector<Tensor>& inputs, const std::vector<size_t>& labels,
    double clip_norm) {
  DPAUDIT_CHECK_EQ(inputs.size(), labels.size());
  DPAUDIT_CHECK_GT(clip_norm, 0.0);
  std::vector<ParamRange> ranges = LayerParamRanges();
  DPAUDIT_CHECK(!ranges.empty());
  double per_layer_clip =
      clip_norm / std::sqrt(static_cast<double>(ranges.size()));
  std::vector<float> sum(NumParams(), 0.0f);
  for (size_t j = 0; j < inputs.size(); ++j) {
    PerExampleGradientInto(inputs[j], labels[j], &scratch_);
    const float* grad = scratch_.grad.data();
    for (const ParamRange& range : ranges) {
      double norm = L2Norm(grad + range.offset, range.size);
      AccumulateScaled(sum.data() + range.offset, grad + range.offset,
                       range.size, ClipScale(norm, per_layer_clip));
    }
  }
  return sum;
}

std::vector<float> Network::FlatParams() const {
  std::vector<float> flat;
  flat.reserve(NumParams());
  for (const auto& layer : layers_) {
    for (Tensor* p : const_cast<Layer&>(*layer).Params()) {
      flat.insert(flat.end(), p->vec().begin(), p->vec().end());
    }
  }
  return flat;
}

void Network::SetFlatParams(const std::vector<float>& flat) {
  DPAUDIT_CHECK_EQ(flat.size(), NumParams());
  size_t offset = 0;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->Params()) {
      std::copy(flat.begin() + offset, flat.begin() + offset + p->size(),
                p->vec().begin());
      offset += p->size();
    }
  }
}

void Network::ApplyGradientStep(const std::vector<float>& flat_gradient,
                                double lr) {
  DPAUDIT_CHECK_EQ(flat_gradient.size(), NumParams());
  size_t offset = 0;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->Params()) {
      float* data = p->data();
      for (size_t i = 0; i < p->size(); ++i) {
        data[i] -= static_cast<float>(lr * flat_gradient[offset + i]);
      }
      offset += p->size();
    }
  }
}

std::string Network::Describe() const {
  std::ostringstream os;
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) os << " -> ";
    os << layers_[i]->Name();
  }
  return os.str();
}

Network BuildMnistNetwork(size_t image_size, size_t conv1_filters,
                          size_t conv2_filters, size_t num_classes) {
  DPAUDIT_CHECK_GE(image_size, 12u);
  Network net;
  net.Add(std::make_unique<Conv2d>(1, conv1_filters, 3));
  net.Add(std::make_unique<ChannelNorm>(conv1_filters));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<MaxPool2d>(2));
  net.Add(std::make_unique<Conv2d>(conv1_filters, conv2_filters, 3));
  net.Add(std::make_unique<ChannelNorm>(conv2_filters));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<MaxPool2d>(2));
  size_t s1 = (image_size - 2) / 2;  // after conv1 + pool
  size_t s2 = (s1 - 2) / 2;          // after conv2 + pool
  net.Add(std::make_unique<Dense>(conv2_filters * s2 * s2, num_classes));
  return net;
}

Network BuildPurchaseNetwork(size_t input_features, size_t hidden_units,
                             size_t num_classes) {
  Network net;
  net.Add(std::make_unique<Dense>(input_features, hidden_units));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Dense>(hidden_units, num_classes));
  return net;
}

}  // namespace dpaudit
